// Package repro reproduces "Policy-Based Security Modelling and Enforcement
// Approach for Emerging Embedded Architectures" (Hagan, Siddiqui & Sezer,
// IEEE SOCC 2018, DOI 10.1109/SOCC.2018.8618544) as a Go library.
//
// The paper derives enforceable security policies directly from application
// threat modelling (STRIDE classification, DREAD risk scoring) and enforces
// them with a hardware policy engine between a CAN controller and its
// transceiver, complemented by an SELinux-style software MAC. This module
// implements the approach end to end on a simulated substrate:
//
//   - internal/sim       — discrete-event simulation kernel (resettable,
//     allocation-free steady state)
//   - internal/canbus    — bit-accurate CAN 2.0 bus (ISO 11898) simulation,
//     restorable in place to a pristine topology snapshot
//   - internal/stride    — STRIDE categorisation
//   - internal/dread     — DREAD scoring with a qualitative rubric
//   - internal/policy    — policy model, DSL, compiler, signed bundles
//   - internal/policy/ir — typed policy IR and its three named enforcement
//     backends: policies lower once (interned subjects/modes,
//     dropped unreachable rules, closed-world decision contract) and
//     compile through a named backend — "table" (the HPE-table
//     interpreter, unchanged), "expr" (rego/CEL-style rule-AST walker,
//     also the transpile source for policyc -emit rego|cel), "closure"
//     (pre-compiled per-vehicle-model jump tables) — all allocation-free
//     on the per-frame Decide path
//   - internal/policy/difftest — differential-equivalence harness holding
//     every backend to the IR's decision contract over exhaustive probe
//     matrices (Table I included) and fuzzed policy sets
//     (FuzzBackendEquivalence)
//   - internal/hpe       — the Fig. 4 hardware policy engine
//   - internal/mac       — SELinux-style type-enforcement MAC
//   - internal/threatmodel — the Fig. 1 modelling pipeline
//   - internal/car       — the connected-car case study (Figs. 2-3, Table I)
//   - internal/attack    — attack injection and measurement harness
//   - internal/lifecycle — Fig. 1 life-cycle and response-cycle economics
//   - internal/report    — table and figure renderers
//   - internal/core      — the paper's contribution glued end to end
//   - internal/fleet     — §V-A.2 staged policy rollout (canary, abort)
//   - internal/engine    — fleet-scale simulation engine: N independent
//     vehicles (scheduler + bus + car + HPE/MAC each) on a bounded worker
//     pool with deterministic per-vehicle seeds, merged reports, and
//     per-worker vehicle arenas that reset one stack in place per vehicle
//     instead of rebuilding it; multi-group runs sweep a whole campaign's
//     scenario groups per vehicle visit (vehicle-major, no per-family
//     barrier); one fast path (pooled, prefix-batched, stamped) and one
//     reference oracle (fresh stacks, cell by cell: -no-batch)
//   - internal/campaign  — procedural adversary-campaign generator: a
//     declarative text/JSON spec (campaign.Parse) expands into families of
//     generated scenarios — Table I mutations, coordinated multi-attacker
//     floods, predicate-gated multi-stage kill chains — compiled onto
//     attack.Scenario cells and swept on the fleet engine in one
//     vehicle-major pass with SplitMix64 sub-seeds (CampaignReport
//     byte-identical across worker counts and batched/oracle runs); shipped
//     specs live under examples/campaigns
//   - internal/risk      — empirically-grounded risk scoring: the threat
//     model compiles into campaign families (risk.Synthesize: tampering →
//     payload mutations, DoS → floods, elevation → staged kill chains) and
//     the swept report reconciles each threat's rubric DREAD score with
//     measured evidence (risk.Calibrate: block rates → exploitability and
//     affected-users, goal hits → damage), yielding a deterministic
//     rubric-vs-measured profile with a ranked residual-risk table; run
//     specs live under examples/threatmodels (carsim -risk)
//   - internal/shard     — fleet partition-and-merge layer: contiguous
//     index ranges run as independent engine passes (global-index seeding
//     keeps every vehicle trajectory pinned to its shard-independent
//     coordinates); each range folds on its own as its vehicles arrive
//     and the exact, order-free folds combine byte-identical to the
//     unsharded run; vehicles move as runs that differ only in index,
//     so a stamped range folds in one step; spawn hooks run ranges
//     out of process (carsim -shard-exec) over the binary wire, up to
//     -shard-parallelism at once; shard.Aggregate keeps no per-vehicle
//     section, shard.Run lists every vehicle
//   - internal/shard/wire — the binary shard transport, the only one: a
//     versioned, CRC32-framed varint stream carrying one run of vehicle
//     reports per frame (a stamped range is two frames), written as
//     vehicles complete and decoded incrementally (neither side buffers a
//     shard's report set); any corrupted byte surfaces as a typed checksum
//     error the shard driver records like a failed shard
//
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
