package threatmodel

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dread"
)

// This file implements the device *risk profile* the paper's §II invokes
// ("a new threat ... change[s] the risk profile of the device, undermining
// the existing security model"): per-asset and per-entry-point aggregations
// over the rated threats, so re-running the pipeline after a new threat is
// added shows exactly where the profile moved.

// AssetRisk aggregates the rated threats targeting one asset.
type AssetRisk struct {
	// Asset names the asset.
	Asset string
	// Node is the hosting station.
	Node string
	// Critical echoes the asset's criticality flag.
	Critical bool
	// ThreatCount is the number of threats targeting the asset.
	ThreatCount int
	// MaxAverage is the highest DREAD average among them.
	MaxAverage float64
	// SumAverage is the total of the DREAD averages (exposure mass).
	SumAverage float64
	// WorstRating is the highest severity band reached.
	WorstRating dread.Rating
}

// EntryPointRisk aggregates the rated threats using one entry point.
type EntryPointRisk struct {
	// EntryPoint names the interface.
	EntryPoint string
	// ThreatCount is the number of threats entering here.
	ThreatCount int
	// SumAverage is the total DREAD mass flowing through this interface.
	SumAverage float64
}

// RiskProfile is the aggregated view of an analysis.
type RiskProfile struct {
	// UseCase names the analysed application.
	UseCase string
	// Assets sorted by descending exposure mass.
	Assets []AssetRisk
	// EntryPoints sorted by descending exposure mass.
	EntryPoints []EntryPointRisk
	// TotalExposure is the sum of all threats' DREAD averages.
	TotalExposure float64
}

// Profile computes the risk profile of an analysis.
func Profile(a *Analysis) RiskProfile {
	p := RiskProfile{UseCase: a.UseCase.Name}
	assetIdx := map[string]int{}
	entryIdx := map[string]int{}
	for _, asset := range a.UseCase.Assets {
		assetIdx[asset.Name] = len(p.Assets)
		p.Assets = append(p.Assets, AssetRisk{
			Asset: asset.Name, Node: asset.Node, Critical: asset.Critical,
		})
	}
	for _, e := range a.UseCase.EntryPoints {
		entryIdx[e.Name] = len(p.EntryPoints)
		p.EntryPoints = append(p.EntryPoints, EntryPointRisk{EntryPoint: e.Name})
	}
	for _, t := range a.Threats {
		avg := t.Score.Average()
		p.TotalExposure += avg
		if i, ok := assetIdx[t.Asset]; ok {
			ar := &p.Assets[i]
			ar.ThreatCount++
			ar.SumAverage += avg
			if avg > ar.MaxAverage {
				ar.MaxAverage = avg
			}
			if t.Rating > ar.WorstRating {
				ar.WorstRating = t.Rating
			}
		}
		for _, e := range t.EntryPoints {
			if i, ok := entryIdx[e]; ok {
				p.EntryPoints[i].ThreatCount++
				p.EntryPoints[i].SumAverage += avg
			}
		}
	}
	sort.SliceStable(p.Assets, func(i, j int) bool {
		return p.Assets[i].SumAverage > p.Assets[j].SumAverage
	})
	sort.SliceStable(p.EntryPoints, func(i, j int) bool {
		return p.EntryPoints[i].SumAverage > p.EntryPoints[j].SumAverage
	})
	return p
}

// String renders the profile as a ranked report.
func (p RiskProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "risk profile of %q (total exposure %.1f)\n", p.UseCase, p.TotalExposure)
	b.WriteString("assets by exposure:\n")
	for _, ar := range p.Assets {
		crit := ""
		if ar.Critical {
			crit = " [critical]"
		}
		fmt.Fprintf(&b, "  %-16s threats=%-2d max=%.1f sum=%.1f worst=%s%s\n",
			ar.Asset, ar.ThreatCount, ar.MaxAverage, ar.SumAverage, ar.WorstRating, crit)
	}
	b.WriteString("entry points by exposure:\n")
	for _, er := range p.EntryPoints {
		fmt.Fprintf(&b, "  %-28s threats=%-2d sum=%.1f\n",
			er.EntryPoint, er.ThreatCount, er.SumAverage)
	}
	return b.String()
}
