package align

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/gatesim"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
)

// Objective evaluates the paper's alignment objective: the delay through
// the victim receiver gate, measured at the receiver *output* 50%
// crossing. The receiver is simulated nonlinearly with the noisy
// superposed waveform prescribed at its input (Figure 1(d)).
type Objective struct {
	Receiver *device.Cell
	Load     float64 // receiver output load capacitance, F
	// VictimRising is the direction of the noiseless victim transition at
	// the receiver input; the output direction follows the receiver
	// cell's polarity.
	VictimRising bool
	// Sims, when non-nil, is incremented once per nonlinear receiver
	// simulation (every exhaustive-search grid point and delay
	// evaluation funnels through Output or OutputCross).
	Sims *metrics.Counter
	// Steps, when non-nil, is incremented by the committed step count of
	// every nonlinear receiver simulation; Steps/Sims is the mean
	// transient length.
	Steps *metrics.Counter
	// Ctx, when non-nil, cancels the receiver simulations and the
	// exhaustive searches (checked at every grid point).
	Ctx context.Context
}

// outputRising returns the receiver output transition direction.
func (o Objective) outputRising() bool {
	return o.Receiver.OutputRisingFor(o.VictimRising)
}

// Vdd returns the supply of the receiver's technology.
func (o Objective) Vdd() float64 { return o.Receiver.Tech.Vdd }

// Output simulates the receiver with input waveform in over the full
// horizon and returns the receiver output waveform. Callers that keep
// the waveform (reports, journals, the next stage of a path) use it.
func (o Objective) Output(in *waveform.PWL) (*waveform.PWL, error) {
	o.Sims.Inc()
	return gatesim.Receive(o.Receiver, in, o.Load, o.simOptions())
}

// OutputCross simulates the receiver with input waveform in and returns
// the time of the final 50% crossing of the output transition. It is
// bit-identical to Cross of Output's waveform, error class included,
// but the transient ends as soon as that crossing is decided
// (gatesim.ReceiveCross), which is what every alignment search pays
// for.
func (o Objective) OutputCross(in *waveform.PWL) (float64, error) {
	o.Sims.Inc()
	return gatesim.ReceiveCross(o.Receiver, in, o.Load, o.outputRising(), o.simOptions())
}

// simOptions are the receiver simulation options of every evaluation.
func (o Objective) simOptions() gatesim.Options {
	return gatesim.Options{Ctx: o.Ctx, Steps: o.Steps}
}

// Cross returns the final 50% crossing of a receiver output waveform —
// the crossing OutputCross reports, split out so callers that retain
// the output waveform (path-level propagation) measure it identically.
func (o Objective) Cross(out *waveform.PWL) (float64, error) {
	return gatesim.LastCross(out, o.Vdd(), o.outputRising())
}

// OutputRising reports the receiver output transition direction.
func (o Objective) OutputRising() bool { return o.outputRising() }

// NoisyInput positions the noise pulse (peak at t = 0 by convention) so
// its peak occurs at tPeak and superposes it on the noiseless input.
func NoisyInput(noiseless, noise *waveform.PWL, tPeak float64) *waveform.PWL {
	return waveform.Sum(noiseless, noise.Shift(tPeak))
}

// InputCross returns the final 50% crossing of the noisy waveform at the
// receiver *input* — the interconnect-only delay objective the paper
// argues against (used by the Fig 3 and Fig 14 baselines).
func (o Objective) InputCross(in *waveform.PWL) (float64, error) {
	return gatesim.LastCross(in, o.Vdd(), o.VictimRising)
}

// SearchWindow is the sweep range for exhaustive alignment searches,
// derived from the noiseless transition and the pulse width.
func SearchWindow(noiseless, noise *waveform.PWL, vdd float64, rising bool) (lo, hi float64, err error) {
	var t5, t95 float64
	if rising {
		t5, err = noiseless.CrossRising(0.05 * vdd)
		if err == nil {
			t95, err = noiseless.CrossRising(0.95 * vdd)
		}
	} else {
		t5, err = noiseless.CrossFalling(0.95 * vdd)
		if err == nil {
			t95, err = noiseless.CrossFalling(0.05 * vdd)
		}
	}
	if err != nil {
		return 0, 0, noiseerr.Numericalf("align: noiseless waveform has no full transition: %w", err)
	}
	p, err := Params(noise)
	if err != nil {
		return 0, 0, err
	}
	pad := 2 * p.Width
	return t5 - pad, t95 + 2*pad, nil
}

// WorstResult is the outcome of an exhaustive alignment search.
type WorstResult struct {
	TPeak float64 // pulse-peak time of the worst case
	TOut  float64 // receiver output 50% crossing at the worst case
	// Va is the alignment voltage: the noiseless receiver-input value at
	// TPeak (the quantity the pre-characterization tables store).
	Va float64
}

// ExhaustiveWorst sweeps the pulse peak over the search window with nGrid
// points plus two 5-point refinement passes, maximizing the receiver
// output crossing time. This is the expensive search the paper's
// pre-characterization replaces.
func (o Objective) ExhaustiveWorst(noiseless, noise *waveform.PWL, nGrid int) (WorstResult, error) {
	return o.exhaustive(noiseless, noise, nGrid, true, o.OutputCross)
}

// ExhaustiveBest is the speed-up dual of ExhaustiveWorst: it sweeps the
// pulse peak to *minimize* the receiver output crossing time. Same-
// direction aggressors accelerate the victim transition; the minimum
// bounds the early edge of downstream timing windows.
func (o Objective) ExhaustiveBest(noiseless, noise *waveform.PWL, nGrid int) (WorstResult, error) {
	return o.exhaustive(noiseless, noise, nGrid, false, o.OutputCross)
}

// exhaustive is the search behind ExhaustiveWorst (maximize) and
// ExhaustiveBest: nGrid evenly spaced pulse peaks over the search
// window, then two 5-point refinement passes around the incumbent,
// each candidate ranked by eval of its noisy receiver input.
func (o Objective) exhaustive(noiseless, noise *waveform.PWL, nGrid int, maximize bool, eval func(in *waveform.PWL) (float64, error)) (WorstResult, error) {
	if nGrid < 5 {
		nGrid = 5
	}
	lo, hi, err := SearchWindow(noiseless, noise, o.Vdd(), o.VictimRising)
	if err != nil {
		return WorstResult{}, err
	}
	better := func(out, best float64) bool {
		if maximize {
			return out > best
		}
		return out < best
	}
	bestT, bestOut := lo, math.Inf(1)
	if maximize {
		bestOut = math.Inf(-1)
	}
	var lastErr error
	step := (hi - lo) / float64(nGrid-1)
	for i := 0; i < nGrid; i++ {
		if err := o.canceled(); err != nil {
			return WorstResult{}, err
		}
		tp := lo + float64(i)*step
		out, err := eval(NoisyInput(noiseless, noise, tp))
		if err != nil {
			if errors.Is(err, noiseerr.ErrCanceled) {
				return WorstResult{}, err
			}
			lastErr = err // some alignments may never cross (pathological noise)
			continue
		}
		if better(out, bestOut) {
			bestT, bestOut = tp, out
		}
	}
	if math.IsInf(bestOut, 0) {
		return WorstResult{}, noiseerr.Convergencef("align: no alignment produced an output crossing (last: %w)", lastErr)
	}
	// Two refinement passes around the incumbent.
	for pass := 0; pass < 2; pass++ {
		step /= 2.5
		for _, tp := range []float64{bestT - 2*step, bestT - step, bestT + step, bestT + 2*step} {
			if err := o.canceled(); err != nil {
				return WorstResult{}, err
			}
			out, err := eval(NoisyInput(noiseless, noise, tp))
			if err != nil {
				if errors.Is(err, noiseerr.ErrCanceled) {
					return WorstResult{}, err
				}
				continue
			}
			if better(out, bestOut) {
				bestT, bestOut = tp, out
			}
		}
	}
	return WorstResult{TPeak: bestT, TOut: bestOut, Va: noiseless.At(bestT)}, nil
}

// canceled converts a fired search context into a classified error.
func (o Objective) canceled() error {
	if o.Ctx == nil {
		return nil
	}
	if err := o.Ctx.Err(); err != nil {
		return noiseerr.Canceled(fmt.Errorf("align: search canceled: %w", err))
	}
	return nil
}

// ReceiverInputSpeedup is the speed-up analog of ReceiverInputAlignment:
// the pulse peak is placed where the noiseless transition reaches
// Vdd/2 - Vp (rising victim, helping pulse), which maximizes the
// interconnect-delay *decrease*.
func ReceiverInputSpeedup(noiseless *waveform.PWL, height, vdd float64, rising bool) (float64, error) {
	vp := math.Abs(height)
	if rising {
		target := vdd/2 - vp
		_, min := noiseless.Min()
		if target <= min {
			target = min + 1e-9
		}
		return noiseless.CrossRising(target)
	}
	target := vdd/2 + vp
	_, max := noiseless.Max()
	if target >= max {
		target = max - 1e-9
	}
	return noiseless.CrossFalling(target)
}

// ReceiverInputAlignment is the baseline alignment of refs [5][6]: the
// composite pulse peak is placed where the noiseless transition reaches
// Vdd/2 + Vp (rising victim; Vdd/2 - Vp falling), which maximizes the
// *interconnect* delay alone. height is the signed pulse peak.
func ReceiverInputAlignment(noiseless *waveform.PWL, height, vdd float64, rising bool) (float64, error) {
	vp := math.Abs(height)
	if rising {
		target := vdd/2 + vp
		_, max := noiseless.Max()
		if target >= max {
			// The pulse is taller than the remaining swing; latest useful
			// point is just before the transition completes.
			target = max - 1e-9
		}
		return noiseless.CrossRising(target)
	}
	target := vdd/2 - vp
	_, min := noiseless.Min()
	if target <= min {
		target = min + 1e-9
	}
	return noiseless.CrossFalling(target)
}

// DelayNoise evaluates the extra combined delay caused by the noise pulse
// at a given alignment: output crossing with noise minus without.
func (o Objective) DelayNoise(noiseless, noise *waveform.PWL, tPeak float64) (float64, error) {
	quiet, err := o.OutputCross(noiseless)
	if err != nil {
		return 0, fmt.Errorf("align: noiseless receiver sim: %w", err)
	}
	noisy, err := o.OutputCross(NoisyInput(noiseless, noise, tPeak))
	if err != nil {
		return 0, fmt.Errorf("align: noisy receiver sim: %w", err)
	}
	return noisy - quiet, nil
}
