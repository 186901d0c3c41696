package pathnoise

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/delaynoise"
	"repro/internal/journal"
	"repro/internal/resilience"
)

func sampleRecords() []StageRecord {
	res := &StageResult{
		InSlewQuiet: 300e-12, InSlewNoisy: 310e-12,
		QuietShift: 1e-12, NoisyShift: 2e-12,
		QuietCross: 450e-12, NoisyCross: 470e-12,
		QuietArr: 451e-12, NoisyArr: 472e-12,
		StageQuiet: 250e-12, StageNoise: 21e-12,
		TPeak: 400e-12, Incremental: 21e-12, Cumulative: 21e-12,
		Iterations: 3,
	}
	return []StageRecord{
		{
			Path: "p0", Stage: 0, Iter: 0, Net: "p0.s0",
			Quality: resilience.QualityExact.String(), Result: res,
			QuietOutT: []float64{0, 1e-12, 2e-12}, QuietOutV: []float64{0, 0.9, 1.8},
			NoisyOutT: []float64{0, 1.5e-12, 3e-12}, NoisyOutV: []float64{0, 0.5, 1.8},
		},
		{
			Path: "p0", Stage: 1, Iter: 0, Net: "p0.s1", Final: true, Done: true,
			Quality: resilience.QualityRescued.String(), Result: res,
			QuietOutT: []float64{0, 1e-12}, QuietOutV: []float64{1.8, 0},
			NoisyOutT: []float64{0, 2e-12}, NoisyOutV: []float64{1.8, 0.1},
		},
		{
			Path: "p1", Stage: 0, Iter: 1, Net: "p1.s0", Final: true, Done: true,
			Class: "convergence", Error: "net p1.s0: it broke",
		},
	}
}

// TestStageCodecRoundTrip pushes records through both formats and the
// sniffing reader: every field, including the waveform series, must
// round-trip exactly.
func TestStageCodecRoundTrip(t *testing.T) {
	recs := sampleRecords()
	for _, f := range []journal.Format{journal.Binary, journal.JSONL} {
		var buf bytes.Buffer
		j := journal.NewLog(&buf, f, StageRecordCodec)
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				t.Fatalf("%s: write: %v", f, err)
			}
		}
		got, err := ReadPathJournal(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", f, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s: %d records, want %d", f, len(got), len(recs))
		}
		for _, want := range recs {
			if !reflect.DeepEqual(got[want.Key()], want) {
				t.Fatalf("%s: record %+v round-tripped to %+v", f, want, got[want.Key()])
			}
		}
	}
}

// TestStageCodecByName pins the stage journal's -journal-format names:
// each selects the format a stage journal is written in (the sniffed
// first byte agrees), the empty name is the binary default, and an
// unknown name is rejected.
func TestStageCodecByName(t *testing.T) {
	rec := sampleRecords()[0]
	for name, want := range map[string]journal.Format{
		"": journal.Binary, "binary": journal.Binary, "jsonl": journal.JSONL, "json": journal.JSONL,
	} {
		f, err := journal.FormatByName(name)
		if err != nil || f != want {
			t.Fatalf("FormatByName(%q) = %v, %v", name, f, err)
		}
		var buf bytes.Buffer
		if err := journal.NewLog(&buf, f, StageRecordCodec).Append(rec); err != nil {
			t.Fatal(err)
		}
		if got := journal.Sniff(buf.Bytes()[0]); got != want {
			t.Fatalf("%q journal sniffs as %s, want %s", name, got, want)
		}
		got, err := ReadPathJournal(bytes.NewReader(buf.Bytes()))
		if err != nil || !reflect.DeepEqual(got[rec.Key()], rec) {
			t.Fatalf("%q journal read back %+v, %v", name, got, err)
		}
	}
	if _, err := journal.FormatByName("msgpack"); err == nil {
		t.Fatal("unknown codec name must be rejected")
	}
}

// TestReadPathJournalFileMissing: a fresh run resumes from nothing.
func TestReadPathJournalFileMissing(t *testing.T) {
	got, err := ReadPathJournalFile(filepath.Join(t.TempDir(), "absent"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing journal: %v, %v", got, err)
	}
}

// TestHandoffWaveRejectsBadSeries guards resume against hand-edited or
// torn series that would panic waveform.New.
func TestHandoffWaveRejectsBadSeries(t *testing.T) {
	if _, ok := handoffWave([]float64{0, 1, 1}, []float64{0, 1, 2}); ok {
		t.Fatal("non-increasing times accepted")
	}
	if _, ok := handoffWave([]float64{0, 1}, []float64{0}); ok {
		t.Fatal("length mismatch accepted")
	}
	if _, ok := handoffWave([]float64{0}, []float64{0}); ok {
		t.Fatal("single-point series accepted")
	}
	if w, ok := handoffWave([]float64{0, 1e-12}, []float64{0, 1.8}); !ok || w.Len() != 2 {
		t.Fatal("valid series rejected")
	}
}

func TestStageWindow(t *testing.T) {
	// A retarding cumulative shift widens the window backwards from the
	// nominal 50% point; a speedup widens it forwards.
	// t50 = 200ps + 150ps = 350ps, pad = 0.5*slew = 150ps.
	cse := &delaynoise.Case{Victim: delaynoise.DriverSpec{InputSlew: 300e-12, InputStart: 200e-12}}
	start, slew := 200e-12, 300e-12
	t50, pad := start+slew/2, 0.5*slew
	win := stageWindow(cse, 40e-12)
	if win.Lo != t50-pad-40e-12 || win.Hi != t50+pad {
		t.Fatalf("retard window = %+v", win)
	}
	win = stageWindow(cse, -40e-12)
	if win.Lo != t50-pad || win.Hi != t50+pad+40e-12 {
		t.Fatalf("speedup window = %+v", win)
	}
}
