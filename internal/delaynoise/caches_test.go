package delaynoise

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/waveform"
)

// TestCharCacheHitIsExact re-analyzes an identical case through a shared
// CharCache and checks both the hit accounting and that the cached run
// reproduces the uncached result bit-for-bit (exact keys).
func TestCharCacheHitIsExact(t *testing.T) {
	c := testCase(t)
	base, err := Analyze(c, Options{Align: AlignReceiverInput, Hold: HoldTransient})
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	opt := Options{
		Align:   AlignReceiverInput,
		Hold:    HoldTransient,
		Chars:   NewCharCache(0, reg),
		Metrics: reg,
	}
	first, err := Analyze(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Analyze(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if hits, _, _ := s.CacheRatio("cache.char.full"); hits == 0 {
		t.Fatalf("expected full-characterization cache hits, counters: %v", s.Counters)
	}
	if hits, _, _ := s.CacheRatio("cache.char.rough"); hits == 0 {
		t.Fatalf("expected rough-fit cache hits, counters: %v", s.Counters)
	}
	if hits, _, _ := s.CacheRatio("cache.holdres"); hits == 0 {
		t.Fatalf("expected holding-resistance cache hits, counters: %v", s.Counters)
	}
	if first.DelayNoise != second.DelayNoise || first.VictimRtr != second.VictimRtr {
		t.Fatalf("cached re-run diverged: %v vs %v", first.DelayNoise, second.DelayNoise)
	}
	// The bucketed rough fits may perturb the result slightly relative to
	// the uncached flow, but only within the bucket resolution. DelayNoise
	// itself can be numerically tiny, so compare the physically meaningful
	// intermediates.
	if relErr := math.Abs(first.VictimRtr-base.VictimRtr) / base.VictimRtr; relErr > 0.02 {
		t.Fatalf("bucketed Rtr drifted %.1f%% from uncached", 100*relErr)
	}
	if relErr := math.Abs(first.Pulse.Height-base.Pulse.Height) / math.Abs(base.Pulse.Height); relErr > 0.02 {
		t.Fatalf("bucketed pulse height drifted %.1f%% from uncached", 100*relErr)
	}
	if s.Counters["sim.linear"] == 0 {
		t.Fatal("linear simulation counter not incremented")
	}
	if s.Counters["sim.nonlinear.receiver"] == 0 {
		t.Fatal("nonlinear receiver simulation counter not incremented")
	}
}

// TestCharCacheBucketSharing verifies that slews within one geometric
// bucket share a single rough fit deterministically.
func TestCharCacheBucketSharing(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell, err := lib.Cell("INVX4")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cc := NewCharCache(0.05, reg)
	a, err := cc.RoughFit(context.Background(), cell, 100e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	// 1% away: same 5% bucket.
	b, err := cc.RoughFit(context.Background(), cell, 101e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rth != b.Rth {
		t.Fatalf("bucketed fits differ: %v vs %v", a.Rth, b.Rth)
	}
	s := reg.Snapshot()
	if hits, misses, _ := s.CacheRatio("cache.char.rough"); hits != 1 || misses != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", hits, misses)
	}
	// 40% away: different bucket, recomputed.
	c, err := cc.RoughFit(context.Background(), cell, 140e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rth == a.Rth {
		t.Fatal("distant slews must not share a bucket")
	}
}

// TestNilCachesPassThrough ensures the nil-receiver path computes.
func TestNilCachesPassThrough(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell, err := lib.Cell("INVX2")
	if err != nil {
		t.Fatal(err)
	}
	var cc *CharCache
	if _, err := cc.RoughFit(context.Background(), cell, 100e-12, true, 20e-15); err != nil {
		t.Fatal(err)
	}
}

// TestHashCircuitSensitivity: identical builds hash equal; any element
// change perturbs the hash.
func TestHashCircuitSensitivity(t *testing.T) {
	build := func(r float64) *netlist.Circuit {
		ckt := netlist.NewCircuit()
		ckt.AddR("r", "a", "b", r)
		ckt.AddC("c", "b", "0", 1e-15)
		ckt.AddDriver("d", "a", waveform.Constant(1.8), 100)
		return ckt
	}
	if hashCircuit(build(50)) != hashCircuit(build(50)) {
		t.Fatal("identical circuits hash differently")
	}
	if hashCircuit(build(50)) == hashCircuit(build(51)) {
		t.Fatal("changed resistor value did not change the hash")
	}
}
