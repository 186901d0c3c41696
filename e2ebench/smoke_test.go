package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/clarinet"
)

// tinySizes shrinks every workload to seconds of work: one round, one
// caller, two replicas, one receiver cell's tables.
func tinySizes() sizes {
	return sizes{
		workers:      2,
		setupReps:    2,
		batchRound:   2,
		pathCount:    1,
		pathStages:   2,
		reqFresh:     1,
		reqResubmit:  1,
		clients:      1,
		replicas:     2,
		goldenSample: 1,
		receivers:    1,
	}
}

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// runTiny runs one workload at the tiny size and returns the decoded
// JSON line and the human-readable output.
func runTiny(t *testing.T, workload string, seed int64, trace bool, out string) (map[string]any, string) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, window: time.Millisecond, trace: trace,
		out: out, root: ".", size: tinySizes()}
	res, err := execute(context.Background(), cfg, workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var buf bytes.Buffer
	if err := report(&buf, cfg, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not JSON: %v\n%s", workload, err, buf.String())
	}
	return line, buf.String()
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			line, text := runTiny(t, name, 1, trace, t.TempDir())
			if line["correct"] != true || line["failed"] != float64(0) || line["attempted"].(float64) < 1 {
				t.Errorf("%s trace=%v: %v\n%s", name, trace, line, text)
			}
			metrics := line["metrics"].(map[string]any)
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", name, trace, len(metrics), len(want))
			}
			for _, m := range want {
				v, ok := metrics[m.Name].(map[string]any)
				if !ok || v["unit"] != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or with the wrong unit: %v", name, trace, m.Name, metrics[m.Name])
				}
			}
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	out := t.TempDir()
	_, first := runTiny(t, "batch_exhaustive", 3, false, out)
	_, again := runTiny(t, "batch_exhaustive", 3, false, out) // fails its ledger check on a mismatch
	if digestLine(first) != digestLine(again) || strings.Contains(again, "CHECK FAILED") {
		t.Fatalf("same seed, different digests:\n%s\n%s", first, again)
	}
	_, other := runTiny(t, "batch_exhaustive", 4, false, out)
	if digestLine(first) == digestLine(other) {
		t.Fatalf("seeds 3 and 4 print the same digest %q", digestLine(first))
	}
	key := ledgerKey(config{workload: "batch_exhaustive", seed: 3, size: tinySizes()}, sourceDigest("."))
	if err := checkDigest(out+"/digests.json", key, "0000"); err == nil {
		t.Fatal("ledger accepted a different digest for the same seed")
	}
}

func digestLine(out string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "digest: ") {
			return strings.Fields(l)[1]
		}
	}
	return ""
}

func TestTamperedResubmitTripsIdentityCheck(t *testing.T) {
	rec := clarinet.JournalRecord{Net: "c0n1", Quality: "exact", Result: &clarinet.JournalResult{DelayNoise: 4.2e-11, TPeak: 1.1e-9}}
	first := map[string]clarinet.JournalRecord{"c0n1": rec}
	resub := rec
	resub.Net = "c0n1.r3"
	req := &request{origin: map[string]string{"c0n1.r3": "c0n1"}, recs: map[string]clarinet.JournalRecord{"c0n1.r3": resub}}
	if err := checkResubmits(req, first); err != nil {
		t.Fatalf("an identical resubmission (new name only) failed the check: %v", err)
	}
	tampered := *resub.Result
	tampered.DelayNoise = 4.2000000001e-11
	resub.Result = &tampered
	req.recs["c0n1.r3"] = resub
	if err := checkResubmits(req, first); err == nil {
		t.Fatal("a tampered resubmitted record passed the identity check")
	}
}
