package delaynoise_test

import (
	"context"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/thevenin"
)

// A snapshot taken from one cache and seeded into a fresh one must make
// the second cache hit where the first one did — with the seeded value,
// not a recomputation.
func TestCharSnapshotSeedsWarmHits(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell := lib.Cells["INVX2"]

	reg1 := metrics.NewRegistry()
	cc1 := delaynoise.NewCharCache(0, reg1)
	m1, err := cc1.RoughFit(context.Background(), cell, 80e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	snap := cc1.Snapshot()
	if len(snap.Rough) != 1 || snap.BucketRes != cc1.Res() {
		t.Fatalf("snapshot = %+v, want one rough entry at res %g", snap, cc1.Res())
	}

	reg2 := metrics.NewRegistry()
	cc2 := delaynoise.NewCharCache(0, reg2)
	if !cc2.Seed(snap) {
		t.Fatal("Seed into a same-resolution cache must succeed")
	}
	if cc2.Len() != 1 {
		t.Fatalf("seeded cache Len = %d, want 1", cc2.Len())
	}
	m2, err := cc2.RoughFit(context.Background(), cell, 80e-12, true, 20e-15)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatalf("warm RoughFit = %+v, want the seeded model %+v", m2, m1)
	}
	if hits := reg2.Counter("cache.char.rough.hit").Value(); hits != 1 {
		t.Fatalf("cache.char.rough.hit = %d, want 1 (seeded entry must hit)", hits)
	}
}

func TestCharSeedRefusesMismatchedResolution(t *testing.T) {
	snap := &delaynoise.CharSnapshot{
		BucketRes: 0.10,
		Rough:     []delaynoise.RoughEntry{{Cell: "INVX1", SlewBucket: 3, Model: thevenin.Model{Rth: 1e3}}},
	}
	cc := delaynoise.NewCharCache(0.05, nil)
	if cc.Seed(snap) {
		t.Fatal("Seed must refuse a snapshot taken under a different bucket resolution")
	}
	if cc.Len() != 0 {
		t.Fatal("refused seed must not install entries")
	}
	var nilCC *delaynoise.CharCache
	if nilCC.Seed(snap) || nilCC.Snapshot() != nil || nilCC.Len() != 0 {
		t.Fatal("nil cache must no-op")
	}
}

func TestCharSeedDoesNotClobberResident(t *testing.T) {
	lib := device.NewLibrary(device.Default180())
	cell := lib.Cells["INVX1"]
	cc := delaynoise.NewCharCache(0, nil)
	resident, err := cc.RoughFit(context.Background(), cell, 60e-12, false, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Re-seed the same key with a poisoned model: the resident must win.
	snap := cc.Snapshot()
	for i := range snap.Rough {
		snap.Rough[i].Model = thevenin.Model{Rth: -1}
	}
	if !cc.Seed(snap) {
		t.Fatal("seed refused")
	}
	got, err := cc.RoughFit(context.Background(), cell, 60e-12, false, 15e-15)
	if err != nil {
		t.Fatal(err)
	}
	if got != resident {
		t.Fatal("Seed clobbered a resident entry")
	}
}
