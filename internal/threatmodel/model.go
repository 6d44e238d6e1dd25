// Package threatmodel implements the application threat modelling pipeline
// of the paper's Fig. 1: risk assessment, asset identification, entry-point
// mapping, threat identification (STRIDE), threat rating (DREAD) and
// countermeasure determination. Its end product is a security model — either
// the traditional guideline document or, following the paper's contribution,
// an enforceable policy set derived directly from the analysis.
package threatmodel

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dread"
	"repro/internal/policy"
	"repro/internal/stride"
)

// Asset is an item of value that should be protected (Fig. 1 "Identify
// Assets"). For the connected car these are the rows of Table I: EV-ECU,
// EPS, Engine, connectivity, infotainment, door locks, safety critical.
type Asset struct {
	// Name uniquely identifies the asset.
	Name string
	// Description explains the asset's function.
	Description string
	// Critical marks assets whose compromise endangers safety.
	Critical bool
	// Node names the bus station hosting the asset, where enforcement
	// attaches. Several assets may share a node.
	Node string
}

// EntryPoint is an interface that exposes assets to an attacker (Fig. 1
// "Entry Points"): CAN connections, wireless interfaces, browsers, sensors.
type EntryPoint struct {
	// Name uniquely identifies the entry point.
	Name string
	// Description explains the interface.
	Description string
	// Exposes lists asset names reachable through this entry point.
	Exposes []string
}

// Vector is the direction of the malicious data flow relative to the
// asset's node, which determines the Table I policy letter: inbound threats
// are countered by tightening the approved reading list (R), outbound
// threats by the writing list (W), bidirectional threats by both (RW).
type Vector uint8

// Vectors.
const (
	// VectorInbound: malicious messages arrive at the asset.
	VectorInbound Vector = iota + 1
	// VectorOutbound: the compromised asset emits malicious messages.
	VectorOutbound
	// VectorBidirectional: both directions participate.
	VectorBidirectional
)

// String returns the vector name.
func (v Vector) String() string {
	switch v {
	case VectorInbound:
		return "inbound"
	case VectorOutbound:
		return "outbound"
	case VectorBidirectional:
		return "bidirectional"
	default:
		return "invalid"
	}
}

// PolicyAction maps the vector to the derived Table I policy letter.
func (v Vector) PolicyAction() policy.Action {
	switch v {
	case VectorInbound:
		return policy.ActRead
	case VectorOutbound:
		return policy.ActWrite
	case VectorBidirectional:
		return policy.ActReadWrite
	default:
		return 0
	}
}

// Threat is one identified threat scenario (Fig. 1 "Threat Identification").
type Threat struct {
	// ID is a short stable identifier ("EVECU-1").
	ID string
	// Description is the Table I "Potential Threats" text.
	Description string
	// Asset names the targeted asset.
	Asset string
	// EntryPoints lists the entry point names used.
	EntryPoints []string
	// Modes lists the operating modes in which the threat applies.
	Modes []policy.Mode
	// Effects are the implementation-neutral consequences, classified into
	// STRIDE categories by the rating stage.
	Effects stride.Effects
	// Assessment holds the qualitative DREAD judgements.
	Assessment dread.Assessment
	// Adjust carries bounded analyst corrections to the rubric output.
	Adjust dread.Adjust
	// Vector is the malicious data-flow direction (drives the policy letter).
	Vector Vector
	// Goal names the observable-state predicate (campaign vocabulary) that
	// detects the threat's effect on a simulated vehicle. It grounds the
	// threat in the measurement substrate: risk synthesis uses it as the
	// success goal of generated flood/staged families, and calibration counts
	// its hits as damage evidence. Empty means the effect has no single
	// observable predicate; such threats still synthesize mutation families
	// (which inherit the baseline scenario's success check).
	Goal string
}

// RatedThreat is a threat after the rating stage.
type RatedThreat struct {
	Threat
	// Stride is the computed category set.
	Stride stride.Set
	// Score is the rubric-computed DREAD score.
	Score dread.Score
	// Rating is the coarse severity band.
	Rating dread.Rating
	// Policy is the derived Table I policy action.
	Policy policy.Action
}

// UseCase describes the application under analysis (Fig. 1 "Risk
// assessment" input).
type UseCase struct {
	// Name identifies the use case ("connected-car").
	Name string
	// Description summarises the deployment scenario.
	Description string
	// Modes lists the device operating modes.
	Modes []policy.Mode
	// Assets lists the items of value.
	Assets []Asset
	// EntryPoints lists the attacker-reachable interfaces.
	EntryPoints []EntryPoint
	// Comm declares the legitimate communication matrix: the traffic each
	// node must be permitted for the application to function. The policy
	// model is derived from this matrix under least privilege — everything
	// not declared is denied.
	Comm []CommRequirement
}

// CommRequirement is one legitimate communication need.
type CommRequirement struct {
	// Subject is the node requiring access.
	Subject string
	// Action is the direction needed.
	Action policy.Action
	// IDs is the message identifier set involved.
	IDs policy.IDSet
	// Modes restricts the requirement to operating modes (empty = all).
	Modes []policy.Mode
	// Rationale documents why the requirement exists.
	Rationale string
}

// Validation errors.
var (
	ErrUnknownAsset = errors.New("threatmodel: threat references unknown asset")
	ErrUnknownEntry = errors.New("threatmodel: threat references unknown entry point")
	ErrUnknownMode  = errors.New("threatmodel: reference to undeclared mode")
	ErrDupAsset     = errors.New("threatmodel: duplicate asset name")
	ErrDupEntry     = errors.New("threatmodel: duplicate entry point name")
	ErrDupThreat    = errors.New("threatmodel: duplicate threat id")
	ErrNoVector     = errors.New("threatmodel: threat has no vector")
)

// Validate checks internal consistency of the use case.
func (u *UseCase) Validate() error {
	if strings.TrimSpace(u.Name) == "" {
		return errors.New("threatmodel: use case has no name")
	}
	if len(u.Modes) == 0 {
		return errors.New("threatmodel: use case declares no modes")
	}
	assets := map[string]bool{}
	for _, a := range u.Assets {
		if assets[a.Name] {
			return fmt.Errorf("%w: %q", ErrDupAsset, a.Name)
		}
		assets[a.Name] = true
		if a.Node == "" {
			return fmt.Errorf("threatmodel: asset %q has no node", a.Name)
		}
	}
	entries := map[string]bool{}
	for _, e := range u.EntryPoints {
		if entries[e.Name] {
			return fmt.Errorf("%w: %q", ErrDupEntry, e.Name)
		}
		entries[e.Name] = true
		for _, x := range e.Exposes {
			if !assets[x] {
				return fmt.Errorf("threatmodel: entry point %q exposes unknown asset %q", e.Name, x)
			}
		}
	}
	modes := map[policy.Mode]bool{}
	for _, m := range u.Modes {
		modes[m] = true
	}
	for _, c := range u.Comm {
		if c.Subject == "" {
			return errors.New("threatmodel: comm requirement has no subject")
		}
		if len(c.IDs) == 0 {
			return fmt.Errorf("threatmodel: comm requirement %q covers no ids", c.Rationale)
		}
		for _, m := range c.Modes {
			if !modes[m] {
				return fmt.Errorf("%w: %q in comm requirement %q", ErrUnknownMode, m, c.Rationale)
			}
		}
	}
	return nil
}

// Asset returns the named asset.
func (u *UseCase) Asset(name string) (Asset, bool) {
	for _, a := range u.Assets {
		if a.Name == name {
			return a, true
		}
	}
	return Asset{}, false
}

// EntryPoint returns the named entry point.
func (u *UseCase) EntryPoint(name string) (EntryPoint, bool) {
	for _, e := range u.EntryPoints {
		if e.Name == name {
			return e, true
		}
	}
	return EntryPoint{}, false
}

// Analysis is the output of the pipeline's identification and rating
// stages: the validated use case plus rated threats sorted by descending
// severity (the prioritisation the paper's "Threat Rating" step calls for).
type Analysis struct {
	UseCase UseCase
	Threats []RatedThreat
}

// Threat returns the rated threat with the given id.
func (a *Analysis) Threat(id string) (RatedThreat, bool) {
	for _, t := range a.Threats {
		if t.ID == id {
			return t, true
		}
	}
	return RatedThreat{}, false
}
