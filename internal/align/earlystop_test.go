package align_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/align"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/noiseerr"
	"repro/internal/waveform"
	"repro/internal/workload"
)

// TestOutputCrossMatchesFullHorizon is the bit-identity guard of the
// early-stopped receiver transient: on a seeded DefaultProfile
// population covering every receiver cell and both victim edges, every
// grid and refinement evaluation of ExhaustiveWorst and ExhaustiveBest
// must give the same OutputCross as the crossing of the full-horizon
// Output waveform, bit for bit and error class included.
func TestOutputCrossMatchesFullHorizon(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	prof := workload.DefaultProfile()
	var evals, earlySteps, fullSteps int64
	for ci, cell := range prof.ReceiverCells {
		p := prof
		p.ReceiverCells = []string{cell}
		gen := workload.NewGenerator(lib, p, int64(20+ci))
		for _, rising := range []bool{true, false} {
			c := drawEdge(t, gen, rising)
			res, err := delaynoise.Analyze(c, delaynoise.Options{
				Align: delaynoise.AlignReceiverInput,
				Hold:  delaynoise.HoldThevenin,
			})
			if err != nil {
				t.Fatalf("%s rising=%v: analyze: %v", cell, rising, err)
			}
			var early, full metrics.Counter
			o := align.Objective{Receiver: c.Receiver, Load: c.ReceiverLoad, VictimRising: rising, Steps: &early}
			ref := o
			ref.Steps = &full
			eval := func(in *waveform.PWL) (float64, error) {
				evals++
				got, gotErr := o.OutputCross(in)
				var want float64
				out, wantErr := ref.Output(in)
				if wantErr == nil {
					want, wantErr = ref.Cross(out)
				}
				switch {
				case (gotErr == nil) != (wantErr == nil):
					t.Errorf("%s rising=%v: OutputCross err %v, full-horizon err %v", cell, rising, gotErr, wantErr)
				case gotErr != nil:
					if noiseerr.Class(gotErr) != noiseerr.Class(wantErr) || errors.Is(gotErr, waveform.ErrNoCrossing) != errors.Is(wantErr, waveform.ErrNoCrossing) {
						t.Errorf("%s rising=%v: error class %v (%v), full horizon %v (%v)", cell, rising,
							noiseerr.Class(gotErr), gotErr, noiseerr.Class(wantErr), wantErr)
					}
				case math.Float64bits(got) != math.Float64bits(want):
					t.Errorf("%s rising=%v: OutputCross %.17g, full horizon %.17g", cell, rising, got, want)
				}
				return got, gotErr
			}
			for _, maximize := range []bool{true, false} {
				if _, err := o.ExhaustiveWith(res.NoiselessRecvIn, res.Composite, 21, maximize, eval); err != nil {
					t.Fatalf("%s rising=%v maximize=%v: search: %v", cell, rising, maximize, err)
				}
			}
			earlySteps += early.Value()
			fullSteps += full.Value()
		}
	}
	if evals < int64(len(prof.ReceiverCells)*2*2*(21+8)) {
		t.Fatalf("only %d evaluations ran", evals)
	}
	// The guard must exercise the stop, not a run that never ends early.
	if earlySteps >= fullSteps {
		t.Fatalf("early-stopped runs took %d steps, full horizon %d", earlySteps, fullSteps)
	}
	t.Logf("%d evaluations: %d early-stopped steps vs %d full-horizon (%.2fx)",
		evals, earlySteps, fullSteps, float64(fullSteps)/float64(earlySteps))
}

// drawEdge draws cases from gen until one has the requested victim
// edge.
func drawEdge(t *testing.T, gen *workload.Generator, rising bool) *delaynoise.Case {
	t.Helper()
	for i := 0; i < 64; i++ {
		c, err := gen.Next(i)
		if err != nil {
			t.Fatal(err)
		}
		if c.Victim.OutputRising == rising {
			return c
		}
	}
	t.Fatalf("no case with victim rising=%v in 64 draws", rising)
	return nil
}
