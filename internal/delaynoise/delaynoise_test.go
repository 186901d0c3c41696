package delaynoise

import (
	"errors"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/noiseerr"
	"repro/internal/rcnet"
)

var (
	tech = device.Default180()
	lib  = device.NewLibrary(tech)
)

func cellOf(t testing.TB, name string) *device.Cell {
	t.Helper()
	c, err := lib.Cell(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testCase builds the canonical single-aggressor cluster used across the
// package tests: weak victim, strong aggressor, heavy coupling — the
// regime where the Thevenin holding resistance visibly underestimates
// the injected noise.
func testCase(t testing.TB) *Case {
	net := rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: "v", Segments: 5, RTotal: 500, CGround: 30e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: "a0", Segments: 5, RTotal: 300, CGround: 25e-15}, CCouple: 35e-15, From: 0, To: 1},
		},
	})
	return &Case{
		Net: net,
		Victim: DriverSpec{
			Cell: cellOf(t, "INVX1"), InputSlew: 250e-12,
			OutputRising: true, InputStart: 200e-12,
		},
		Aggressors: []DriverSpec{{
			Cell: cellOf(t, "INVX8"), InputSlew: 100e-12,
			OutputRising: false, InputStart: 300e-12,
		}},
		Receiver:     cellOf(t, "INVX2"),
		ReceiverLoad: 10e-15,
	}
}

func TestValidate(t *testing.T) {
	c := testCase(t)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *c
	bad.Aggressors = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for aggressor count mismatch")
	}
	bad = *c
	bad.Victim.InputSlew = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero slew")
	}
	bad = *c
	bad.Receiver = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for nil receiver")
	}
	// NaN compares false both ways, so it must not slip past the checks.
	nan := math.NaN()
	for name, edit := range map[string]func(*Case){
		"victim slew":    func(b *Case) { b.Victim.InputSlew = nan },
		"aggressor slew": func(b *Case) { b.Aggressors = []DriverSpec{{Cell: c.Aggressors[0].Cell, InputSlew: nan}} },
		"receiver load":  func(b *Case) { b.ReceiverLoad = nan },
		"extra load":     func(b *Case) { b.ExtraLoads = map[string]float64{c.Net.VictimOut: nan} },
	} {
		bad = *c
		edit(&bad)
		if err := bad.Validate(); !errors.Is(err, noiseerr.ErrInvalidCase) {
			t.Errorf("NaN %s: err %v, want ErrInvalidCase", name, err)
		}
	}
}

func TestAnalyzeTheveninBaseline(t *testing.T) {
	c := testCase(t)
	res, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimRtr != res.VictimRth {
		t.Fatalf("Thevenin hold must keep Rtr == Rth (%v vs %v)", res.VictimRtr, res.VictimRth)
	}
	if res.DelayNoise <= 0 {
		t.Fatalf("worst-case delay noise %v must be positive", res.DelayNoise)
	}
	if res.QuietCombinedDelay <= 0 {
		t.Fatalf("quiet combined delay %v must be positive", res.QuietCombinedDelay)
	}
	if res.Pulse.Height >= 0 {
		t.Fatalf("falling aggressor on rising victim must give negative noise, got %v", res.Pulse.Height)
	}
	if res.Iterations != 1 {
		t.Fatalf("Thevenin flow should not iterate, got %d", res.Iterations)
	}
}

func TestAnalyzeTransientHold(t *testing.T) {
	c := testCase(t)
	res, err := Analyze(c, Options{Hold: HoldTransient, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.VictimRtr == res.VictimRth {
		t.Fatal("transient hold should compute a distinct Rtr")
	}
	// The victim switching mid-noise is saturated: Rtr > Rth, and the
	// noise pulse computed with Rtr must be taller than with Rth.
	if res.VictimRtr <= res.VictimRth {
		t.Errorf("expected Rtr (%v) > Rth (%v) for mid-transition noise", res.VictimRtr, res.VictimRth)
	}
	thev, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Pulse.Height) <= math.Abs(thev.Pulse.Height) {
		t.Errorf("Rtr noise height %v should exceed Thevenin %v",
			res.Pulse.Height, thev.Pulse.Height)
	}
	if res.Iterations < 1 || res.Iterations > 3 {
		t.Errorf("iterations = %d, expected 1-3 (paper: 1-2)", res.Iterations)
	}
}

// TestRtrBeatsTheveninAgainstGolden is the single-net version of the
// paper's Figure 13 claim: the delay noise from the linear flow with the
// transient holding resistance tracks the full nonlinear reference much
// more closely than the Thevenin baseline, which underestimates.
func TestRtrBeatsTheveninAgainstGolden(t *testing.T) {
	c := testCase(t)
	rtr, err := Analyze(c, Options{Hold: HoldTransient, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	thev, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate the golden nonlinear delay noise at the same alignment the
	// Rtr flow chose.
	shifts := PeakShifts(rtr.NoisePeakTimes, rtr.TPeak)
	golden, err := GoldenAtShifts(c, shifts)
	if err != nil {
		t.Fatal(err)
	}
	if golden.DelayNoise <= 0 {
		t.Fatalf("golden delay noise %v must be positive", golden.DelayNoise)
	}
	errRtr := math.Abs(rtr.DelayNoise - golden.DelayNoise)
	errThev := math.Abs(thev.DelayNoise - golden.DelayNoise)
	t.Logf("golden %.2fps, rtr %.2fps (err %.2fps), thevenin %.2fps (err %.2fps)",
		golden.DelayNoise*1e12, rtr.DelayNoise*1e12, errRtr*1e12,
		thev.DelayNoise*1e12, errThev*1e12)
	if errRtr >= errThev {
		t.Errorf("Rtr error (%v) should beat Thevenin error (%v)", errRtr, errThev)
	}
	// The Thevenin baseline must underestimate (the paper's observation).
	if thev.DelayNoise >= golden.DelayNoise {
		t.Errorf("Thevenin flow should underestimate golden: %v vs %v",
			thev.DelayNoise, golden.DelayNoise)
	}
}

func TestWindowConstraint(t *testing.T) {
	c := testCase(t)
	free, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	// Force the alignment window to end well before the free worst case.
	win := &Window{Lo: 0, Hi: free.TPeak - 150e-12}
	constrained, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignExhaustive, Window: win})
	if err != nil {
		t.Fatal(err)
	}
	if constrained.TPeak > win.Hi+1e-15 {
		t.Fatalf("TPeak %v violates window hi %v", constrained.TPeak, win.Hi)
	}
	if constrained.DelayNoise > free.DelayNoise+1e-13 {
		t.Fatalf("constrained noise %v cannot exceed free %v", constrained.DelayNoise, free.DelayNoise)
	}
}

func TestAlignmentMethodOrdering(t *testing.T) {
	// Exhaustive must dominate the receiver-input baseline on final
	// receiver-output delay noise (it optimizes exactly that).
	c := testCase(t)
	exh, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignReceiverInput})
	if err != nil {
		t.Fatal(err)
	}
	if base.DelayNoise > exh.DelayNoise+1e-13 {
		t.Fatalf("receiver-input baseline (%v) beat exhaustive (%v)",
			base.DelayNoise, exh.DelayNoise)
	}
}

func TestPrecharRequiresTable(t *testing.T) {
	c := testCase(t)
	if _, err := Analyze(c, Options{Align: AlignPrechar}); err == nil {
		t.Fatal("expected error for missing prechar table")
	}
}

func TestGoldenWorstCaseSweep(t *testing.T) {
	c := testCase(t)
	g, err := GoldenWorstCase(c, 400e-12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.DelayNoise <= 0 {
		t.Fatalf("golden worst delay noise %v", g.DelayNoise)
	}
	if len(g.Sweep) < 9 {
		t.Fatalf("sweep has %d points", len(g.Sweep))
	}
	// The reported worst case must match the sweep maximum.
	max := math.Inf(-1)
	for _, p := range g.Sweep {
		if p.DelayNoise > max {
			max = p.DelayNoise
		}
	}
	if g.DelayNoise < max {
		t.Fatalf("reported %v below sweep max %v", g.DelayNoise, max)
	}
}

func TestGoldenShiftValidation(t *testing.T) {
	c := testCase(t)
	if _, err := GoldenAtShifts(c, []float64{0, 0}); err == nil {
		t.Fatal("expected error for shift count mismatch")
	}
}

func TestPRIMAPathMatchesFull(t *testing.T) {
	c := testCase(t)
	full, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignReceiverInput})
	if err != nil {
		t.Fatal(err)
	}
	red, err := Analyze(c, Options{Hold: HoldThevenin, Align: AlignReceiverInput, PRIMAOrder: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(full.DelayNoise - red.DelayNoise); d > 0.1*math.Abs(full.DelayNoise)+1e-12 {
		t.Fatalf("PRIMA path diverges: %v vs %v", red.DelayNoise, full.DelayNoise)
	}
}

func TestTreeSinkAnalysis(t *testing.T) {
	tree := rcnet.BuildTree(rcnet.TreeSpec{
		Coupled: rcnet.CoupledSpec{
			Victim: rcnet.LineSpec{Name: "v", Segments: 6, RTotal: 400, CGround: 30e-15},
			Aggressors: []rcnet.AggressorSpec{
				{Line: rcnet.LineSpec{Name: "a", Segments: 6, RTotal: 300, CGround: 25e-15}, CCouple: 30e-15, From: 0, To: 1},
			},
		},
		Branches: []rcnet.BranchSpec{
			{At: 0.5, Line: rcnet.LineSpec{Name: "b", Segments: 3, RTotal: 200, CGround: 12e-15}},
		},
	})
	recv := cellOf(t, "INVX2")
	mkCase := func(sink string, other string) *Case {
		return &Case{
			Net: tree.CoupledNet,
			Victim: DriverSpec{Cell: cellOf(t, "INVX2"), InputSlew: 300e-12,
				OutputRising: true, InputStart: 200e-12},
			Aggressors: []DriverSpec{{Cell: cellOf(t, "INVX8"), InputSlew: 80e-12,
				OutputRising: false, InputStart: 400e-12}},
			Receiver:     recv,
			ReceiverLoad: 10e-15,
			Sink:         sink,
			ExtraLoads:   map[string]float64{other: recv.InputCap()},
		}
	}
	sinks := tree.Sinks()
	trunk, err := Analyze(mkCase(sinks[0], sinks[1]), Options{Hold: HoldTransient, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	branch, err := Analyze(mkCase(sinks[1], sinks[0]), Options{Hold: HoldTransient, Align: AlignExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if trunk.DelayNoise <= 0 || branch.DelayNoise <= 0 {
		t.Fatalf("delay noise trunk %v, branch %v", trunk.DelayNoise, branch.DelayNoise)
	}
	// The trunk sink (farther and more coupled) should see the larger
	// quiet delay; both analyses must be internally consistent with the
	// nonlinear reference.
	golden, err := GoldenAtShifts(mkCase(sinks[1], sinks[0]), PeakShifts(branch.NoisePeakTimes, branch.TPeak))
	if err != nil {
		t.Fatal(err)
	}
	if golden.DelayNoise <= 0 {
		t.Fatalf("branch golden %v", golden.DelayNoise)
	}
	if math.Abs(branch.DelayNoise-golden.DelayNoise) > 0.5*golden.DelayNoise {
		t.Fatalf("branch analysis %v far from golden %v", branch.DelayNoise, golden.DelayNoise)
	}
}
