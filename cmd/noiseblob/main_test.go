package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/journal"
	"repro/internal/pathnoise"
)

func stageRecords() []pathnoise.StageRecord {
	res := &pathnoise.StageResult{
		InSlewQuiet: 300e-12, InSlewNoisy: 310e-12, QuietArr: 451e-12, NoisyArr: 472e-12,
		StageQuiet: 250e-12, StageNoise: 21e-12, Cumulative: 21e-12, Iterations: 3,
	}
	return []pathnoise.StageRecord{
		{
			Path: "p0", Stage: 0, Net: "p0.s0", Quality: "exact", Result: res,
			QuietOutT: []float64{0, 1e-12, 2e-12}, QuietOutV: []float64{0, 0.9, 1.8},
			NoisyOutT: []float64{0, 1.5e-12, 3e-12}, NoisyOutV: []float64{0, 0.5, 1.8},
		},
		{Path: "p0", Stage: 1, Net: "p0.s1", Final: true, Done: true, Class: "convergence", Error: "it broke"},
	}
}

func writeJournal[R any](t *testing.T, path string, f journal.Format, c journal.Codec[R], recs []R) {
	t.Helper()
	var buf bytes.Buffer
	l := journal.NewLog(&buf, f, c)
	for _, rec := range recs {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readRecords[R any](t *testing.T, path string, c journal.Codec[R]) []R {
	t.Helper()
	var got []R
	if err := journal.ReadFile(path, c, func(rec R) { got = append(got, rec) }); err != nil {
		t.Fatal(err)
	}
	return got
}

// roundTrip converts a binary journal to JSONL and back, and checks
// that both copies decode to recs and the binary bytes come back
// unchanged.
func roundTrip[R any](t *testing.T, c journal.Codec[R], recs []R) {
	dir := t.TempDir()
	bin, jsonl, back := filepath.Join(dir, "in.journal"), filepath.Join(dir, "mid.jsonl"), filepath.Join(dir, "out.journal")
	writeJournal(t, bin, journal.Binary, c, recs)
	if err := convert(bin, jsonl, "jsonl"); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, jsonl, c); !reflect.DeepEqual(got, recs) {
		t.Fatalf("binary→jsonl decoded to %+v, want %+v", got, recs)
	}
	if err := convert(jsonl, back, "binary"); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, back, c); !reflect.DeepEqual(got, recs) {
		t.Fatalf("jsonl→binary decoded to %+v, want %+v", got, recs)
	}
	want, _ := os.ReadFile(bin)
	got, _ := os.ReadFile(back)
	if !bytes.Equal(got, want) {
		t.Fatal("binary→jsonl→binary changed the journal bytes")
	}
}

// TestConvertStageJournal: path-stage journals convert losslessly in
// both directions, waveform series included.
func TestConvertStageJournal(t *testing.T) {
	roundTrip(t, pathnoise.StageRecordCodec, stageRecords())
}

// TestConvertNetJournal: the same round trip for net journals.
func TestConvertNetJournal(t *testing.T) {
	recs := []clarinet.JournalRecord{
		{Net: "net_0001", Quality: "exact", Result: &clarinet.JournalResult{DelayNoise: 2.5e-11, TPeak: 1.5e-10, Iterations: 4}},
		{Net: "net_0002", Class: "numerical", Error: "singular"},
	}
	roundTrip(t, clarinet.RecordCodec, recs)
}

// TestDumpStageJournal: dump renders a stage journal in either format
// as the same JSON lines, stage fields and series intact.
func TestDumpStageJournal(t *testing.T) {
	dir := t.TempDir()
	var outs []string
	for _, f := range []journal.Format{journal.Binary, journal.JSONL} {
		path := filepath.Join(dir, f.String())
		writeJournal(t, path, f, pathnoise.StageRecordCodec, stageRecords())
		var out bytes.Buffer
		if err := dump(&out, path); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("binary and JSONL dumps differ:\n%s\n%s", outs[0], outs[1])
	}
	if !strings.Contains(outs[0], `"path":"p0","stage":1`) || !strings.Contains(outs[0], `"noisyOutV":[0,0.5,1.8]`) {
		t.Fatalf("dump lost stage fields:\n%s", outs[0])
	}
}
