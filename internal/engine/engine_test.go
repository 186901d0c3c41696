package engine_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/rcnet"
	"repro/internal/workload"
)

func TestConfigDefaults(t *testing.T) {
	s := engine.New(engine.Config{})
	if s.Tech() == nil || s.Tech().Name != device.Default180().Name {
		t.Fatal("zero config must select the default technology")
	}
	if s.Lib() == nil || s.Metrics() == nil {
		t.Fatal("zero config must install a library and registry")
	}
	if s.Chars() == nil {
		t.Fatal("caches must be on by default")
	}
	if _, err := s.Cell("INVX2"); err != nil {
		t.Fatalf("cell lookup failed: %v", err)
	}

	off := engine.New(engine.Config{CharCacheRes: -1})
	if off.Chars() != nil {
		t.Fatal("cache opt-out ignored")
	}

	lib := device.NewLibrary(device.Default180())
	reg := metrics.NewRegistry()
	explicit := engine.New(engine.Config{Lib: lib, Metrics: reg})
	if explicit.Lib() != lib || explicit.Metrics() != reg || explicit.Tech() != lib.Tech {
		t.Fatal("explicit library/registry not honored")
	}
}

// TestSessionAnalyzerDefaults checks what a zero-config session hands
// an analysis: the default 1.8 V technology and a cell library that
// resolves known cells and rejects unknown ones.
func TestSessionAnalyzerDefaults(t *testing.T) {
	s := engine.New(engine.Config{})
	if s.Tech().Vdd != 1.8 {
		t.Fatalf("default Vdd = %v", s.Tech().Vdd)
	}
	if _, err := s.Cell("INVX4"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cell("NOPE"); err == nil {
		t.Fatal("expected an error for an unknown cell")
	}
}

// TestSessionTableCache checks that the session builds an alignment
// table once per (receiver, edge) and hands the same table back on the
// next request.
func TestSessionTableCache(t *testing.T) {
	s := engine.New(engine.Config{})
	recv, err := s.Cell("INVX1")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.Table(context.Background(), recv, true)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Table(context.Background(), recv, true)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("table not cached")
	}
	if t1.NumPoints() != 8 {
		t.Fatalf("table has %d points", t1.NumPoints())
	}
	if s.TableCount() != 1 {
		t.Fatalf("TableCount = %d, want 1", s.TableCount())
	}
}

func TestBindWiresCachesWithoutClobberingKnobs(t *testing.T) {
	s := engine.New(engine.Config{})
	opt := s.Bind(delaynoise.Options{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignPrechar})
	if opt.Chars != s.Chars() || opt.Metrics != s.Metrics() {
		t.Fatal("Bind must wire the session caches and registry")
	}
	if opt.Hold != delaynoise.HoldTransient || opt.Align != delaynoise.AlignPrechar {
		t.Fatal("Bind must not clobber analysis knobs")
	}
}

// TestViewsShareOneSession is the tentpole invariant: a clarinet.Tool
// built with clarinet.Config.Session is a view of that session — it
// shares the library, the registry, the characterization caches, and
// the alignment tables, so work done through the tool is visible
// through the session and the reverse.
func TestViewsShareOneSession(t *testing.T) {
	s := engine.New(engine.Config{PrecharGrid: 5})
	tool := clarinet.MustNew(nil, clarinet.Config{Session: s, Align: delaynoise.AlignReceiverInput})

	if tool.Session() != s {
		t.Fatal("the tool must expose the shared session")
	}
	if tool.Metrics() != s.Metrics() {
		t.Fatal("the tool must share the session's metrics registry")
	}
	if tool.Lib != s.Lib() {
		t.Fatal("the tool must share the session's cell library")
	}

	// Work done through the tool must be visible through the session:
	// analyze a net and check the shared registry moved.
	gen := workload.NewGenerator(s.Lib(), workload.DefaultProfile(), 7)
	cases, err := gen.Population(1)
	if err != nil {
		t.Fatal(err)
	}
	r := tool.AnalyzeNet(context.Background(), "shared0", cases[0])
	if r.Err != nil {
		t.Fatalf("analysis failed: %v", r.Err)
	}
	if got := s.Metrics().Counter("nets.analyzed").Value(); got != 1 {
		t.Fatalf("session sees nets.analyzed = %d, want 1", got)
	}

	// And the reverse: a table built through the session is the one a
	// prechar tool over it aligns with, not a rebuild.
	recv, rising := cases[0].Receiver, cases[0].Victim.OutputRising
	tab, err := s.Table(context.Background(), recv, rising)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumPoints() != 8 {
		t.Fatalf("table has %d points, want 8", tab.NumPoints())
	}
	prechar := clarinet.MustNew(nil, clarinet.Config{Session: s, Align: delaynoise.AlignPrechar})
	if r := prechar.AnalyzeNet(context.Background(), "shared1", cases[0]); r.Err != nil {
		t.Fatalf("prechar analysis failed: %v", r.Err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("TableCount = %d, want 1", s.TableCount())
	}
	if hits := s.Metrics().Counter("cache.tables.hit").Value(); hits != 1 {
		t.Fatalf("cache.tables.hit = %d, want 1", hits)
	}
}

// TestDelayNoiseVsBaselineVsReference runs the paper's flow on a
// session-bound option set (transient holding resistance, exhaustive
// alignment) against the Thevenin baseline and the nonlinear reference
// at the chosen alignment: the paper's flow must not be the less
// accurate of the two.
func TestDelayNoiseVsBaselineVsReference(t *testing.T) {
	s := engine.New(engine.Config{})
	c := smallCase(t, s)
	ours, err := delaynoise.Analyze(c, s.Bind(delaynoise.Options{Hold: delaynoise.HoldTransient, Align: delaynoise.AlignExhaustive}))
	if err != nil {
		t.Fatal(err)
	}
	base, err := delaynoise.Analyze(c, s.Bind(delaynoise.Options{Hold: delaynoise.HoldThevenin, Align: delaynoise.AlignExhaustive}))
	if err != nil {
		t.Fatal(err)
	}
	if base.VictimRtr != base.VictimRth {
		t.Fatal("baseline must keep the Thevenin holding resistance")
	}
	gold, err := delaynoise.GoldenAtShifts(c, delaynoise.PeakShifts(ours.NoisePeakTimes, ours.TPeak))
	if err != nil {
		t.Fatal(err)
	}
	if gold.DelayNoise <= 0 {
		t.Fatalf("reference delay noise %v", gold.DelayNoise)
	}
	errOurs := math.Abs(ours.DelayNoise - gold.DelayNoise)
	errBase := math.Abs(base.DelayNoise - gold.DelayNoise)
	if errOurs > errBase {
		t.Errorf("paper flow (%v) should not be worse than baseline (%v)", errOurs, errBase)
	}
}

// smallCase is one victim with one strong opposing aggressor, in the
// regime where the holding-resistance model visibly matters.
func smallCase(t *testing.T, s *engine.Session) *delaynoise.Case {
	t.Helper()
	cell := func(n string) *device.Cell {
		c, err := s.Cell(n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	net := rcnet.Build(rcnet.CoupledSpec{
		Victim: rcnet.LineSpec{Name: "v", Segments: 4, RTotal: 350, CGround: 30e-15},
		Aggressors: []rcnet.AggressorSpec{
			{Line: rcnet.LineSpec{Name: "a", Segments: 4, RTotal: 250, CGround: 25e-15}, CCouple: 28e-15, From: 0, To: 1},
		},
	})
	return &delaynoise.Case{
		Net: net,
		Victim: delaynoise.DriverSpec{
			Cell: cell("INVX2"), InputSlew: 300e-12, OutputRising: true, InputStart: 200e-12,
		},
		Aggressors: []delaynoise.DriverSpec{{
			Cell: cell("INVX8"), InputSlew: 80e-12, OutputRising: false, InputStart: 400e-12,
		}},
		Receiver:     cell("INVX2"),
		ReceiverLoad: 10e-15,
	}
}
