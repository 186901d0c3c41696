package gatesim

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
	"repro/internal/waveform"
)

var (
	tech = device.Default180()
	lib  = device.NewLibrary(tech)
)

func cellOf(t *testing.T, name string) *device.Cell {
	t.Helper()
	c, err := lib.Cell(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInputRamp(t *testing.T) {
	r := Input(tech, 100e-12, true)
	if r.At(InputStart) != 0 || math.Abs(r.At(InputStart+100e-12)-tech.Vdd) > 1e-12 {
		t.Fatal("rising input ramp wrong")
	}
	f := Input(tech, 100e-12, false)
	if math.Abs(f.At(0)-tech.Vdd) > 1e-12 || f.At(1) != 0 {
		t.Fatal("falling input ramp wrong")
	}
}

func TestDriveSettles(t *testing.T) {
	cell := cellOf(t, "INVX2")
	out, err := Drive(cell, 150e-12, true, 30e-15, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rising input -> falling output, settled at ground.
	if out.At(out.Start()) < 0.9*tech.Vdd {
		t.Fatalf("initial output %v", out.At(out.Start()))
	}
	if math.Abs(out.At(out.End())) > 0.05*tech.Vdd {
		t.Fatalf("final output %v did not settle", out.At(out.End()))
	}
}

func TestDriveWithInjectionDeviates(t *testing.T) {
	cell := cellOf(t, "INVX1")
	clean, err := Drive(cell, 200e-12, false, 40e-15, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := waveform.New(
		[]float64{250e-12, 300e-12, 350e-12},
		[]float64{0, -150e-6, 0})
	noisy, err := Drive(cell, 200e-12, false, 40e-15, inj, Options{Horizon: clean.End()})
	if err != nil {
		t.Fatal(err)
	}
	diff := waveform.Sub(noisy, clean)
	_, peak := diff.Peak()
	if math.Abs(peak) < 0.02 {
		t.Fatalf("injection left no trace: %v", peak)
	}
}

func TestReceiveTracksInput(t *testing.T) {
	cell := cellOf(t, "INVX2")
	in := waveform.Ramp(2e-10, 200e-12, 0, tech.Vdd)
	out, err := Receive(cell, in, 10e-15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.At(out.Start()) < 0.9*tech.Vdd || out.At(out.End()) > 0.1*tech.Vdd {
		t.Fatalf("receiver did not invert: %v -> %v", out.At(out.Start()), out.At(out.End()))
	}
}

func TestSwitchingThreshold(t *testing.T) {
	// The skewed-N inverter trips below midrail; the skewed-P variant
	// above its sibling.
	n := cellOf(t, "INVX2N") // stronger NMOS
	p := cellOf(t, "INVX2P") // stronger PMOS
	vmN, err := SwitchingThreshold(n)
	if err != nil {
		t.Fatal(err)
	}
	vmP, err := SwitchingThreshold(p)
	if err != nil {
		t.Fatal(err)
	}
	if vmN >= vmP {
		t.Fatalf("N-skewed threshold %v should be below P-skewed %v", vmN, vmP)
	}
	for _, vm := range []float64{vmN, vmP} {
		if vm < 0.3 || vm > 1.5 {
			t.Fatalf("implausible threshold %v", vm)
		}
	}
}

func TestDriveNetProbes(t *testing.T) {
	cell := cellOf(t, "INVX2")
	nl := netlist.NewCircuit()
	nl.AddR("r1", "out", "far", 300)
	nl.AddC("c1", "far", "0", 20e-15)
	nl.AddC("c0", "out", "0", 5e-15)
	ws, err := DriveNet(cell, 150e-12, false, nl, "out", 3e-9, 1e-12, "far")
	if err != nil {
		t.Fatal(err)
	}
	outW, farW := ws["out"], ws["far"]
	if outW == nil || farW == nil {
		t.Fatal("probes missing")
	}
	// Falling input -> rising output; far end lags the near end.
	tNear, err := outW.CrossRising(tech.Vdd / 2)
	if err != nil {
		t.Fatal(err)
	}
	tFar, err := farW.CrossRising(tech.Vdd / 2)
	if err != nil {
		t.Fatal(err)
	}
	if tFar <= tNear {
		t.Fatalf("far end (%v) should lag near end (%v)", tFar, tNear)
	}
}

// lateExcursion is a rising receiver input that, long after the output
// has fallen to its rail, makes a full-swing excursion back to ground
// and returns: the output's final falling crossing comes from the
// excursion, not from the first edge.
func lateExcursion() *waveform.PWL {
	return waveform.New(
		[]float64{100e-12, 200e-12, 1500e-12, 1550e-12, 1650e-12, 1700e-12},
		[]float64{0, tech.Vdd, tech.Vdd, 0, 0, tech.Vdd})
}

// receiveBoth runs the full-horizon Receive and ReceiveCross on the same
// input, returning Receive's final crossing and both step counts.
func receiveBoth(t *testing.T, cell *device.Cell, in *waveform.PWL, outRising bool, opt Options) (want, got float64, fullSteps, earlySteps int64) {
	t.Helper()
	var full, early metrics.Counter
	opt.Steps = &full
	out, err := Receive(cell, in, 10e-15, opt)
	if err != nil {
		t.Fatal(err)
	}
	if outRising {
		want, err = out.LastCrossRising(tech.Vdd / 2)
	} else {
		want, err = out.LastCrossFalling(tech.Vdd / 2)
	}
	if err != nil {
		t.Fatal(err)
	}
	opt.Steps = &early
	got, err = ReceiveCross(cell, in, 10e-15, outRising, opt)
	if err != nil {
		t.Fatal(err)
	}
	return want, got, full.Value(), early.Value()
}

func TestReceiveCrossLateExcursion(t *testing.T) {
	cell := cellOf(t, "INVX2")
	in := lateExcursion()
	if q := quietFrom(in, settleBand*tech.Vdd); q != 1700e-12 {
		t.Fatalf("quiet time %g, want the excursion's end 1.7ns", q)
	}
	out, err := Receive(cell, in, 10e-15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := out.At(1400e-12); v > settleBand*tech.Vdd {
		t.Fatalf("output %g V not on its rail before the excursion", v)
	}
	want, got, fullSteps, earlySteps := receiveBoth(t, cell, in, false, Options{})
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ReceiveCross %.17g, full horizon %.17g", got, want)
	}
	if got < 1650e-12 {
		t.Fatalf("crossing %g s is the first edge's, not the late excursion's", got)
	}
	if earlySteps >= fullSteps {
		t.Fatalf("no early stop: %d steps vs %d full", earlySteps, fullSteps)
	}
}

func TestReceiveCrossCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReceiveCross(cellOf(t, "INVX2"), lateExcursion(), 10e-15, false, Options{Ctx: ctx})
	if !errors.Is(err, noiseerr.ErrCanceled) {
		t.Fatalf("err %v, want ErrCanceled", err)
	}
}

func TestReceiveCrossRescueArmedSameStop(t *testing.T) {
	cell := cellOf(t, "NAND2X1")
	in := waveform.Ramp(2e-10, 300e-12, tech.Vdd, 0)
	want, got, fullSteps, plainSteps := receiveBoth(t, cell, in, true, Options{})
	armed := resilience.WithSolverRescue(context.Background(),
		resilience.SolverRescue{GminSteps: 8, SourceSteps: 8, StepHalvings: 4})
	_, gotArmed, _, armedSteps := receiveBoth(t, cell, in, true, Options{Ctx: armed})
	if armedSteps != plainSteps || math.Float64bits(gotArmed) != math.Float64bits(got) {
		t.Fatalf("rescue-armed run stopped after %d steps at %g, unarmed after %d at %g",
			armedSteps, gotArmed, plainSteps, got)
	}
	if math.Float64bits(got) != math.Float64bits(want) || plainSteps >= fullSteps {
		t.Fatalf("crossing %g (full %g), %d steps (full %d)", got, want, plainSteps, fullSteps)
	}
}

// TestReceiveCrossBufferLateExcursion: the two-stage buffer, whose
// internal stage sits between the input and the output, still reports
// the late excursion's crossing after an early stop.
func TestReceiveCrossBufferLateExcursion(t *testing.T) {
	buf := cellOf(t, "BUFX4")
	// Non-inverting: the late excursion makes the output's final edge a
	// rising one.
	want, got, fullSteps, earlySteps := receiveBoth(t, buf, lateExcursion(), true, Options{})
	if math.Float64bits(got) != math.Float64bits(want) || got < 1650e-12 || earlySteps >= fullSteps {
		t.Fatalf("crossing %g (full %g), %d steps (full %d)", got, want, earlySteps, fullSteps)
	}
}
