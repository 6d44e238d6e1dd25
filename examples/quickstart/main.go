// Quickstart: model a single threat, derive a least-privilege policy,
// enforce it with a hardware policy engine on a two-node bus, and watch the
// spoofing attack that motivated it get blocked.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/dread"
	"repro/internal/hpe"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stride"
	"repro/internal/threatmodel"
)

func main() {
	// 1. Describe the use case: one actuator reading command messages from
	// one controller (the legitimate communication matrix).
	uc := threatmodel.UseCase{
		Name:  "quickstart",
		Modes: []policy.Mode{"Run"},
		Assets: []threatmodel.Asset{
			{Name: "valve", Node: "Valve", Critical: true, Description: "process valve actuator"},
			{Name: "plc", Node: "PLC", Description: "programmable logic controller"},
		},
		EntryPoints: []threatmodel.EntryPoint{
			{Name: "fieldbus", Exposes: []string{"valve"}, Description: "shared field bus"},
		},
		Comm: []threatmodel.CommRequirement{
			{Subject: "PLC", Action: policy.ActWrite, IDs: policy.SingleID(0x42),
				Rationale: "valve command tx"},
			{Subject: "Valve", Action: policy.ActRead, IDs: policy.SingleID(0x42),
				Rationale: "valve command rx"},
		},
	}

	// 2. Identify the threat and let the pipeline classify (STRIDE), score
	// (DREAD rubric) and derive the policy action.
	threat := threatmodel.Threat{
		ID:          "VALVE-1",
		Description: "Spoofed command fully opens the valve",
		Asset:       "valve",
		EntryPoints: []string{"fieldbus"},
		Modes:       []policy.Mode{"Run"},
		Effects:     stride.Effects{ForgesIdentity: true, ModifiesData: true, DisruptsService: true},
		Assessment: dread.Assessment{
			Damage:          dread.DamageSafety,
			Reproducibility: dread.ReproReliable,
			Exploitability:  dread.ExploitSkilled,
			AffectedUsers:   dread.AffectedOccupants,
			Discoverability: dread.DiscoverKnown,
		},
		Vector: threatmodel.VectorInbound,
	}

	model, err := core.BuildModel(uc, []threatmodel.Threat{threat}, "quickstart", 1)
	if err != nil {
		log.Fatal(err)
	}
	rt := model.Analysis.Threats[0]
	fmt.Printf("threat %s: STRIDE=%s DREAD=%s rating=%s policy=%s\n",
		rt.ID, rt.Stride, rt.Score, rt.Rating, rt.Policy)
	fmt.Println("\nderived policy:")
	fmt.Print(model.Policies.String())

	// 3. Build the bus, compile the policy, deploy engines.
	sched := &sim.Scheduler{}
	bus := canbus.New(sched, canbus.Config{})
	plc := bus.MustAttach("PLC")
	valve := bus.MustAttach("Valve")
	rogue := bus.MustAttach("Rogue") // attacker-introduced node, no HPE

	valveOpen := false
	valve.Controller().SetHandler(func(f canbus.Frame) {
		if f.ID == 0x42 && len(f.Data) > 0 {
			valveOpen = f.Data[0] == 0xFF
		}
	})

	compiled, err := policy.Compile(model.Policies, policy.CompileOptions{
		Subjects: []string{"PLC", "Valve"},
		Modes:    []policy.Mode{"Run"},
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := hpe.Deploy(bus, compiled, hpe.FixedMode("Run"), "PLC", "Valve"); err != nil {
		log.Fatal(err)
	}

	// 4. Legitimate command flows...
	must(plc.Send(canbus.MustDataFrame(0x42, []byte{0x10})))
	sched.Run()
	fmt.Printf("\nafter legitimate command: valveOpen=%v (want false, 0x10 = 6%% open)\n", valveOpen)

	// ...the spoofed full-open from the rogue node does not: the valve's
	// approved reading list admits 0x42, but the rogue can only reach the
	// valve with IDs the valve was never approved to read — try the
	// maintenance override ID 0x99 an attacker would probe.
	must(rogue.Send(canbus.MustDataFrame(0x99, []byte{0xFF})))
	sched.Run()
	fmt.Printf("after rogue 0x99 probe:   valveOpen=%v, valve read-blocked=%d\n",
		valveOpen, valve.Stats().RxBlocked)

	// An *inside* attack — the PLC compromised and spamming a diagnostic
	// flood ID — is stopped at the PLC's own write filter, which its
	// firmware cannot bypass.
	plc.Controller().CompromiseFilters()
	must(plc.Send(canbus.MustDataFrame(0x99, []byte{0xFF})))
	sched.Run()
	fmt.Printf("after compromised PLC tx: plc write-blocked=%d\n", plc.Stats().TxBlocked)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
