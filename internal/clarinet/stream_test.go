package clarinet

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/journal"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// TestStreamBatchResume feeds StreamBatch a prior map covering part of
// the batch: the resumed reports must arrive first and untouched, the
// rest must be analyzed and journaled, and exactly one report per net
// must be delivered.
func TestStreamBatchResume(t *testing.T) {
	stubAnalyze(t, func(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options) (*delaynoise.Result, error) {
		return cannedResult(resilience.NetName(ctx)), nil
	})
	names, cases, lib := population(t, 4)
	tool := MustNew(lib, Config{Workers: 2})

	prior := map[string]NetReport{
		names[1]: {Res: cannedResult(names[1]), Quality: resilience.QualityRescued},
		names[3]: {Err: &resumedError{msg: "net " + names[3] + ": recorded failure", class: noiseerr.ErrNumerical}},
	}
	var jbuf bytes.Buffer
	ch := tool.StreamBatch(context.Background(), names, cases, prior, NewJournal(&jbuf, journal.JSONL))

	var got []NetReport
	for r := range ch {
		got = append(got, r)
	}
	if len(got) != 4 {
		t.Fatalf("got %d reports, want 4", len(got))
	}
	// Resumed nets stream first, in input order, with identity intact.
	if got[0].Name != names[1] || got[0].Quality != resilience.QualityRescued {
		t.Fatalf("first report = %+v, want resumed %s", got[0], names[1])
	}
	if got[1].Name != names[3] || !errors.Is(got[1].Err, noiseerr.ErrNumerical) {
		t.Fatalf("second report = %+v, want resumed failure %s", got[1], names[3])
	}
	seen := map[string]bool{}
	for _, r := range got {
		if seen[r.Name] {
			t.Fatalf("net %s delivered twice", r.Name)
		}
		seen[r.Name] = true
	}
	if n := tool.Metrics().Snapshot().Counters["nets.resumed"]; n != 2 {
		t.Fatalf("nets.resumed = %d, want 2", n)
	}
	// Only the two fresh nets hit the journal.
	recs, err := ReadJournal(bytes.NewReader(jbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal has %d records, want 2: %v", len(recs), recs)
	}
	if _, ok := recs[names[1]]; ok {
		t.Fatal("resumed net must not be re-journaled")
	}
}

// TestRecordRoundTrip checks the exported wire conversions: a report
// survives ToRecord → JSON-free → Report with its renderable fields and
// error class intact, and cancellation/torn records are rejected.
func TestRecordRoundTrip(t *testing.T) {
	res := cannedResult("netA")
	rec, ok := ToRecord(NetReport{Name: "netA", Res: res, Quality: resilience.QualityFallback})
	if !ok || rec.Net != "netA" || rec.Quality != "fallback" || rec.Result == nil {
		t.Fatalf("record = %+v ok=%v", rec, ok)
	}
	back, ok := rec.Report()
	if !ok {
		t.Fatal("round trip rejected")
	}
	if back.Res.DelayNoise != res.DelayNoise || back.Res.Pulse.Height != res.Pulse.Height {
		t.Fatalf("round trip changed result: %+v vs %+v", back.Res, res)
	}
	if back.Quality != resilience.QualityFallback {
		t.Fatalf("quality = %v", back.Quality)
	}

	rec, ok = ToRecord(NetReport{Name: "netB", Err: noiseerr.WithNet("netB", noiseerr.Numericalf("singular"))})
	if !ok || rec.Class != "numerical" || rec.Error == "" {
		t.Fatalf("failure record = %+v ok=%v", rec, ok)
	}
	back, ok = rec.Report()
	if !ok || !errors.Is(back.Err, noiseerr.ErrNumerical) {
		t.Fatalf("failure round trip = %+v ok=%v", back, ok)
	}
	if back.Err.Error() != rec.Error {
		t.Fatalf("message changed: %q vs %q", back.Err.Error(), rec.Error)
	}

	if _, ok := ToRecord(NetReport{Name: "netC", Err: noiseerr.Canceled(context.Canceled)}); ok {
		t.Fatal("canceled reports must not serialize")
	}
	if _, ok := (JournalRecord{Net: "torn"}).Report(); ok {
		t.Fatal("torn record must be rejected")
	}
	if _, ok := (JournalRecord{}).Report(); ok {
		t.Fatal("nameless record must be rejected")
	}
}
