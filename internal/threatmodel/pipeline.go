package threatmodel

import (
	"fmt"
	"sort"

	"repro/internal/dread"
	"repro/internal/policy"
	"repro/internal/stride"
)

// Stage is one step of the Fig. 1 application threat modelling process.
type Stage uint8

// Pipeline stages, in execution order.
const (
	// StageRiskAssessment decomposes the use case and its interactions.
	StageRiskAssessment Stage = iota + 1
	// StageAssetIdentification identifies the items of value.
	StageAssetIdentification
	// StageEntryPoints maps the interfaces exposing assets.
	StageEntryPoints
	// StageThreatIdentification enumerates and classifies threats (STRIDE).
	StageThreatIdentification
	// StageThreatRating quantifies threats (DREAD) and prioritises.
	StageThreatRating
	// StageCountermeasures determines countermeasures per threat.
	StageCountermeasures
)

// String returns the Fig. 1 label of the stage.
func (s Stage) String() string {
	switch s {
	case StageRiskAssessment:
		return "Risk assessment"
	case StageAssetIdentification:
		return "Identify Assets"
	case StageEntryPoints:
		return "Entry Points"
	case StageThreatIdentification:
		return "Threat Identification"
	case StageThreatRating:
		return "Threat Rating"
	case StageCountermeasures:
		return "Determine countermeasure"
	default:
		return "invalid"
	}
}

// StageError wraps an error with the stage that produced it.
type StageError struct {
	Stage Stage
	Err   error
}

// Error implements error.
func (e *StageError) Error() string {
	return fmt.Sprintf("threatmodel: stage %q: %v", e.Stage, e.Err)
}

// Unwrap exposes the underlying error.
func (e *StageError) Unwrap() error { return e.Err }

// Analyze runs the identification and rating stages of Fig. 1 over a use
// case and its identified threats: it validates all cross-references,
// classifies each threat into STRIDE categories, scores it through the
// DREAD rubric, derives the policy action from the threat vector, and
// returns threats sorted by descending severity.
func Analyze(uc UseCase, threats []Threat) (*Analysis, error) {
	if err := uc.Validate(); err != nil {
		return nil, &StageError{Stage: StageRiskAssessment, Err: err}
	}
	modes := map[policy.Mode]bool{}
	for _, m := range uc.Modes {
		modes[m] = true
	}
	rubric := dread.Rubric{}
	seen := map[string]bool{}
	rated := make([]RatedThreat, 0, len(threats))
	for _, t := range threats {
		if t.ID == "" {
			return nil, &StageError{Stage: StageThreatIdentification,
				Err: fmt.Errorf("threat %q has no id", t.Description)}
		}
		if seen[t.ID] {
			return nil, &StageError{Stage: StageThreatIdentification,
				Err: fmt.Errorf("%w: %q", ErrDupThreat, t.ID)}
		}
		seen[t.ID] = true
		if _, ok := uc.Asset(t.Asset); !ok {
			return nil, &StageError{Stage: StageThreatIdentification,
				Err: fmt.Errorf("%w: %q (threat %s)", ErrUnknownAsset, t.Asset, t.ID)}
		}
		for _, e := range t.EntryPoints {
			if _, ok := uc.EntryPoint(e); !ok {
				return nil, &StageError{Stage: StageThreatIdentification,
					Err: fmt.Errorf("%w: %q (threat %s)", ErrUnknownEntry, e, t.ID)}
			}
		}
		for _, m := range t.Modes {
			if !modes[m] {
				return nil, &StageError{Stage: StageThreatIdentification,
					Err: fmt.Errorf("%w: %q (threat %s)", ErrUnknownMode, m, t.ID)}
			}
		}
		cats := stride.Classify(t.Effects)
		if cats.Empty() {
			return nil, &StageError{Stage: StageThreatIdentification,
				Err: fmt.Errorf("threat %s has no STRIDE-classifiable effects", t.ID)}
		}
		score, err := rubric.Score(t.Assessment)
		if err != nil {
			return nil, &StageError{Stage: StageThreatRating,
				Err: fmt.Errorf("threat %s: %w", t.ID, err)}
		}
		act := t.Vector.PolicyAction()
		if act == 0 {
			return nil, &StageError{Stage: StageCountermeasures,
				Err: fmt.Errorf("%w: %s", ErrNoVector, t.ID)}
		}
		rated = append(rated, RatedThreat{
			Threat: t,
			Stride: cats,
			Score:  score,
			Rating: score.Rate(),
			Policy: act,
		})
	}
	sort.SliceStable(rated, func(i, j int) bool {
		return rated[j].Score.Less(rated[i].Score) // descending severity
	})
	return &Analysis{UseCase: uc, Threats: rated}, nil
}
