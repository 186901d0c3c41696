package pathnoise

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedStages is the seed corpus for FuzzDecodeStage: the sample
// journal records plus one per payload feature they miss (hostile
// floats, empty strings, huge stage and iteration numbers, an empty
// record).
func fuzzSeedStages() []StageRecord {
	recs := sampleRecords()
	return append(recs,
		StageRecord{
			Path: "p2", Stage: 1 << 30, Iter: 7, Net: "", Quality: "heroic",
			Result: &StageResult{
				InSlewQuiet: math.Copysign(0, -1), TPeak: math.MaxFloat64,
				QuietArr: math.SmallestNonzeroFloat64, NoisyArr: math.Inf(1),
				Iterations: 1 << 20,
			},
			NoisyOutT: []float64{0, 1e-12}, NoisyOutV: []float64{math.NaN(), 1},
		},
		StageRecord{},
	)
}

// FuzzDecodeStage throws arbitrary payloads at the stage decoder. Its
// input is untrusted journal and wire bytes, so it must reject garbage
// with an error, never panic. Anything that decodes must re-encode to
// bytes that decode to the same record and re-encode unchanged.
func FuzzDecodeStage(f *testing.F) {
	for _, rec := range fuzzSeedStages() {
		f.Add(appendStagePayload(nil, rec))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeStagePayload(payload)
		if err != nil {
			return
		}
		canon := appendStagePayload(nil, rec)
		back, err := decodeStagePayload(canon)
		if err != nil {
			t.Fatalf("re-decode of a decoded record failed: %v", err)
		}
		if again := appendStagePayload(nil, back); !bytes.Equal(again, canon) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", back, rec)
		}
	})
}

// TestGenStageFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzDecodeStage so CI fuzzing starts from valid
// payloads even before any -fuzz run. Run with
// PATHNOISE_GEN_FUZZ_CORPUS=1 after changing the stage payload format.
func TestGenStageFuzzCorpus(t *testing.T) {
	if os.Getenv("PATHNOISE_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set PATHNOISE_GEN_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeStage")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, rec := range fuzzSeedStages() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", appendStagePayload(nil, rec))
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
