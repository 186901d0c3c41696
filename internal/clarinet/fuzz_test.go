package clarinet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"testing"
)

// fuzzSeedRecords is the seed corpus for FuzzBinaryRecord: one record
// per encoder feature (dense result, error record, hostile floats, the
// exact-sum fast path and its escape, out-of-vocabulary enums, empty).
func fuzzSeedRecords() []JournalRecord {
	return []JournalRecord{
		{Net: "n1", Quality: "exact", Result: &JournalResult{
			VictimCeff: 1.25e-13, VictimRth: 812.5, VictimRtr: 633,
			PulseHeight: 0.41, PulseWidth: 3.5e-11, TPeak: 1.5e-10,
			QuietCombinedDelay: 2.25e-10, NoisyCombinedDelay: 2.5e-10,
			DelayNoise: 2.5e-11, InterconnectDelayNoise: 1e-12, Iterations: 6,
		}},
		{Net: "n2", Class: "numerical", Error: "nlsim: newton stalled"},
		{Net: "n3", Quality: "fallback", Result: &JournalResult{
			DelayNoise: math.Copysign(0, -1), TPeak: math.MaxFloat64,
			VictimCeff: math.SmallestNonzeroFloat64, Iterations: 9,
		}},
		{Net: "n3_sib", Quality: "exact", Result: &JournalResult{
			QuietCombinedDelay: 2e-10, DelayNoise: 3e-11,
			NoisyCombinedDelay: 2e-10 + 3e-11, Iterations: 2,
		}},
		{Net: "n4", Quality: "heroic", Class: "future-class", Error: "x"},
		{Net: ""},
	}
}

// FuzzBinaryRecord throws arbitrary payloads at a fresh
// recordDecoder — the decoder's input is untrusted journal and
// wire bytes, so it must reject garbage with an error, never panic.
// Anything that decodes cleanly must survive a fresh
// encode/decode round trip bit-exactly.
func FuzzBinaryRecord(f *testing.F) {
	for _, rec := range fuzzSeedRecords() {
		var enc recordEncoder
		f.Add(enc.append(nil, rec))
	}
	// A chained second record too: fresh decoders will misread it, which
	// is exactly the hostile-input shape worth mutating from.
	var chain recordEncoder
	first := chain.append(nil, fuzzSeedRecords()[0])
	f.Add(chain.append(nil, fuzzSeedRecords()[3])[len(first):])
	f.Fuzz(func(t *testing.T, payload []byte) {
		var dec recordDecoder
		rec, err := dec.decode(payload)
		if err != nil {
			return
		}
		var enc2 recordEncoder
		var dec2 recordDecoder
		back, err := dec2.decode(enc2.append(nil, rec))
		if err != nil {
			t.Fatalf("re-decode of decoded record failed: %v", err)
		}
		if !recordsBitEqual(back, rec) {
			t.Fatalf("round trip changed record:\n got %+v\nwant %+v", back, rec)
		}
	})
}

// recordsBitEqual compares two records with float fields judged by
// IEEE-754 bits: hostile payloads legally decode to NaN, and
// reflect.DeepEqual would call a bit-exact NaN round trip a failure.
func recordsBitEqual(a, b JournalRecord) bool {
	if a.Net != b.Net || a.Quality != b.Quality || a.Class != b.Class || a.Error != b.Error {
		return false
	}
	if (a.Result == nil) != (b.Result == nil) {
		return false
	}
	if a.Result == nil {
		return true
	}
	x, y := a.Result, b.Result
	if x.Iterations != y.Iterations {
		return false
	}
	xs := [...]float64{x.VictimCeff, x.VictimRth, x.VictimRtr, x.PulseHeight,
		x.PulseWidth, x.TPeak, x.QuietCombinedDelay, x.NoisyCombinedDelay,
		x.DelayNoise, x.InterconnectDelayNoise}
	ys := [...]float64{y.VictimCeff, y.VictimRth, y.VictimRtr, y.PulseHeight,
		y.PulseWidth, y.TPeak, y.QuietCombinedDelay, y.NoisyCombinedDelay,
		y.DelayNoise, y.InterconnectDelayNoise}
	for i := range xs {
		if math.Float64bits(xs[i]) != math.Float64bits(ys[i]) {
			return false
		}
	}
	return true
}

// TestGenBinaryFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzBinaryRecord so CI fuzzing starts from valid
// payloads even before any -fuzz run. Run with
// CLARINET_GEN_FUZZ_CORPUS=1 after changing the binary format.
func TestGenBinaryFuzzCorpus(t *testing.T) {
	if os.Getenv("CLARINET_GEN_FUZZ_CORPUS") == "" {
		t.Skip("set CLARINET_GEN_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBinaryRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, rec := range fuzzSeedRecords() {
		var enc recordEncoder
		payload := enc.append(nil, rec)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", payload)
		name := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
