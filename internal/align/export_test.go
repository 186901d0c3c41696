package align

import "repro/internal/waveform"

// ExhaustiveWith runs the search of ExhaustiveWorst (maximize) or
// ExhaustiveBest with eval ranking each candidate's noisy receiver
// input, so a test sees every grid and refinement evaluation.
func (o Objective) ExhaustiveWith(noiseless, noise *waveform.PWL, nGrid int, maximize bool, eval func(in *waveform.PWL) (float64, error)) (WorstResult, error) {
	return o.exhaustive(noiseless, noise, nGrid, maximize, eval)
}
