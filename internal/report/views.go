package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/car"
	"repro/internal/hpe"
	"repro/internal/lifecycle"
	"repro/internal/policy"
	"repro/internal/threatmodel"
)

// TableI renders the reproduced Table I: per threat row the asset, the car
// mode applicability columns, entry points, description, computed STRIDE
// string, computed DREAD tuple with average, and the derived policy letter.
// rowOrder gives the threat IDs in presentation order (car.TableRowOrder for
// the paper's layout); unknown IDs are skipped.
func TableI(a *threatmodel.Analysis, rowOrder []string) string {
	t := NewTable(
		Column{Header: "Critical Asset"},
		Column{Header: "Nor", Align: Center},
		Column{Header: "Dia", Align: Center},
		Column{Header: "FS", Align: Center},
		Column{Header: "Entry Points"},
		Column{Header: "Potential Threat"},
		Column{Header: "STRIDE"},
		Column{Header: "DREAD (Avg.)", Align: Right},
		Column{Header: "Policy", Align: Center},
	)
	mark := func(rt threatmodel.RatedThreat, m policy.Mode) string {
		for _, tm := range rt.Modes {
			if tm == m {
				return "*"
			}
		}
		return ""
	}
	lastAsset := ""
	for _, id := range rowOrder {
		rt, ok := a.Threat(id)
		if !ok {
			continue
		}
		asset := rt.Asset
		if asset == lastAsset {
			asset = ""
		} else {
			if lastAsset != "" {
				t.AddSeparator()
			}
			lastAsset = rt.Asset
		}
		t.AddRow(
			asset,
			mark(rt, car.ModeNormal),
			mark(rt, car.ModeRemoteDiag),
			mark(rt, car.ModeFailSafe),
			strings.Join(rt.EntryPoints, "; "),
			rt.Description,
			rt.Stride.String(),
			rt.Score.String(),
			rt.Policy.String(),
		)
	}
	return t.String()
}

// Lifecycle renders the Fig. 1 pipeline as a step-wise flow.
func Lifecycle(steps []lifecycle.Step) string {
	var b strings.Builder
	b.WriteString("Secure product development life-cycle (Fig. 1)\n")
	for i, s := range steps {
		connector := "   |"
		if i == 0 {
			connector = ""
		}
		if connector != "" {
			b.WriteString(connector + "\n   v\n")
		}
		tag := ""
		switch s.Kind {
		case lifecycle.Artifact:
			tag = " [artifact]"
		case lifecycle.Gate:
			tag = " [gate]"
		}
		fmt.Fprintf(&b, "[%d] %s%s\n      %s\n", i+1, s.Name, tag, s.Detail)
	}
	return b.String()
}

// Comparison renders the guideline-vs-policy response comparison.
func Comparison(c lifecycle.Comparison, attemptsPerDay, successProb float64) string {
	var b strings.Builder
	b.WriteString("Post-deployment response to a newly discovered threat\n\n")
	b.WriteString(c.Guideline.String())
	b.WriteString("\n")
	b.WriteString(c.Policy.String())
	fmt.Fprintf(&b, "\nspeed-up: %.1fx   exposure window saved: %s\n",
		c.Speedup, lifecycle.FormatDays(c.ExposureSavings))
	ge := lifecycle.Exposure(c.Guideline.Total, attemptsPerDay, successProb)
	pe := lifecycle.Exposure(c.Policy.Total, attemptsPerDay, successProb)
	fmt.Fprintf(&b, "expected successful exploitations (%.1f attempts/day, p=%.2f): guideline %.1f, policy %.1f\n",
		attemptsPerDay, successProb, ge, pe)
	return b.String()
}

// Topology renders the Fig. 2 view: every station on the shared CAN bus
// with the identifiers it legitimately writes and reads.
func Topology() string {
	var b strings.Builder
	b.WriteString("Connected car CAN topology (Fig. 2), 500 kbit/s shared bus\n\n")
	b.WriteString("  CAN-H =============================================================\n")
	b.WriteString("  CAN-L =============================================================\n")
	for _, n := range car.AllNodes {
		var tx, rx []string
		for _, m := range car.Catalog {
			for _, w := range m.Writers {
				if w == n {
					tx = append(tx, fmt.Sprintf("0x%03X", m.ID))
				}
			}
			for _, r := range m.Readers {
				if r == n {
					rx = append(rx, fmt.Sprintf("0x%03X", m.ID))
				}
			}
		}
		sort.Strings(tx)
		sort.Strings(rx)
		fmt.Fprintf(&b, "    |-- %-13s tx:[%s] rx:[%s]\n",
			n, strings.Join(tx, " "), strings.Join(rx, " "))
	}
	return b.String()
}

// NodeArchitecture renders the Fig. 3 view of a CAN node's internals.
func NodeArchitecture(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CAN node %q internal architecture (Fig. 3)\n\n", name)
	b.WriteString("  +----------------------------------------------+\n")
	b.WriteString("  |  Micro-controller / DSP (application logic)  |\n")
	b.WriteString("  +----------------------+-----------------------+\n")
	b.WriteString("                         |\n")
	b.WriteString("  +----------------------v-----------------------+\n")
	b.WriteString("  |  CAN Controller (parse, acceptance filters)  |\n")
	b.WriteString("  +----------------------+-----------------------+\n")
	b.WriteString("                         |\n")
	b.WriteString("  +----------------------v-----------------------+\n")
	b.WriteString("  |  CAN Transceiver (CAN-H / CAN-L)              |\n")
	b.WriteString("  +----------------------+-----------------------+\n")
	b.WriteString("                         |\n")
	b.WriteString("            CAN bus ===============\n")
	return b.String()
}

// HPEView renders the Fig. 4 view: the node with the integrated policy
// engine, its approved lists for the current mode and its counters.
func HPEView(e *hpe.Engine, compiled *policy.Compiled, mode policy.Mode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "CAN node %q with integrated hardware policy engine (Fig. 4), mode %s\n\n",
		e.Subject(), mode)
	nt := compiled.Node(e.Subject())
	mt := nt.Table(mode)
	fmtIDs := func(l policy.IDLookup) string {
		if l == nil || l.Len() == 0 {
			return "(empty)"
		}
		ids := l.IDs()
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = fmt.Sprintf("0x%03X", id)
		}
		return strings.Join(parts, " ")
	}
	b.WriteString("  Controller <---> [ Decision Block ] <---> Transceiver <---> CAN bus\n")
	fmt.Fprintf(&b, "    approved reading list: %s\n", fmtIDs(mt.Reads))
	fmt.Fprintf(&b, "    approved writing list: %s\n", fmtIDs(mt.Writes))
	st := e.Stats()
	fmt.Fprintf(&b, "    decisions=%d reads(grant/block)=%d/%d writes(grant/block)=%d/%d\n",
		st.Decisions, st.ReadsGranted, st.ReadsBlocked, st.WritesGranted, st.WritesBlocked)
	fmt.Fprintf(&b, "    cycle cost per decision: %d cycles (%.0f ns @ %d MHz)\n",
		hpe.CyclesPerDecision, hpe.LatencyNanos(hpe.CyclesPerDecision), hpe.ClockHz/1_000_000)
	return b.String()
}

// AttackResults renders a result matrix: one row per scenario, one outcome
// column per enforcement regime.
func AttackResults(results []attack.Result) string {
	regimes := []attack.Enforcement{}
	seen := map[attack.Enforcement]bool{}
	for _, r := range results {
		if !seen[r.Enforcement] {
			seen[r.Enforcement] = true
			regimes = append(regimes, r.Enforcement)
		}
	}
	sort.Slice(regimes, func(i, j int) bool { return regimes[i] < regimes[j] })

	cols := []Column{
		{Header: "Threat"},
		{Header: "Scenario"},
		{Header: "Attacker"},
	}
	for _, e := range regimes {
		cols = append(cols, Column{Header: string(e.String()), Align: Center})
	}
	t := NewTable(cols...)

	type key struct{ id, name string }
	order := []key{}
	cells := map[key]map[attack.Enforcement]string{}
	placement := map[key]string{}
	for _, r := range results {
		k := key{r.ThreatID, r.Name}
		if _, ok := cells[k]; !ok {
			cells[k] = map[attack.Enforcement]string{}
			order = append(order, k)
		}
		outcome := "blocked"
		if r.Succeeded {
			outcome = "SUCCESS"
		}
		if !r.LegitimateOK {
			outcome += "!fp"
		}
		cells[k][r.Enforcement] = outcome
		placement[k] = r.Placement.String()
	}
	for _, k := range order {
		row := []string{k.id, k.name, placement[k]}
		for _, e := range regimes {
			row = append(row, cells[k][e])
		}
		t.AddRow(row...)
	}
	return t.String()
}
