// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload through the public APIs of workload, clarinet,
// pathnoise, noised, noisegw and noised/client, checks the outputs, and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object. See README.md for the workloads, the
// metrics and the predictions each per-layer metric carries.
//
//	e2ebench --workload batch_exhaustive --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/device"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the timed window
	trace    bool
	out      string // directory for span dumps, result records and the digest ledger
	root     string // module root, hashed into the host fingerprint
	size     sizes
}

// sizes scales a workload. The smoke test runs the tiny variant.
type sizes struct {
	workers      int // engine workers per tool, and client connections cap
	setupReps    int // set-ups before the window, and again after it; setup_s is their median
	batchRound   int // nets per batch round
	pathCount    int // paths per path round
	pathStages   int // stages per path
	reqFresh     int // fresh nets per served request
	reqResubmit  int // resubmitted nets per served request
	clients      int // closed-loop served callers
	replicas     int // noised replicas behind the gateway
	goldenSample int // nets checked against the nonlinear golden
	receivers    int // served receiver cells, a prefix of the profile's (0 = all)
}

func defaultSizes() sizes {
	nproc := runtime.NumCPU()
	return sizes{
		workers:      nproc,
		setupReps:    5,
		batchRound:   8 * nproc,
		pathCount:    2 * nproc,
		pathStages:   6,
		reqFresh:     6,
		reqResubmit:  6,
		clients:      min(2, nproc),
		replicas:     3,
		goldenSample: 16,
	}
}

func (s sizes) String() string {
	return fmt.Sprintf("w%d r%d p%dx%d q%d+%d c%d n%d g%d R%d", s.workers, s.batchRound,
		s.pathCount, s.pathStages, s.reqFresh, s.reqResubmit, s.clients, s.replicas, s.goldenSample, s.receivers)
}

// outcome is what a workload hands back to the reporter.
type outcome struct {
	setup     []float64 // seconds, one per set-up repetition
	units     int       // nets (stage executions on path_dag) completed in the window
	attempted int
	failed    int
	wall      float64   // timed window, seconds
	rate      float64   // nets_per_s
	latencies []float64 // per-net submission-to-record seconds
	goldenErr float64   // mean |reported − golden| delay noise over the sample, ps
	digest    string
	layers    map[string]float64
	checks    []error // failed output checks
	notes     []string
}

// repeat runs f n times, stopping at the first error. Batch and path
// time their set-up this way before the window and again after it, so
// one burst of load on the host cannot set the median.
func repeat(n int, f func() error) error {
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func (o *outcome) check(err error) {
	if err != nil {
		o.checks = append(o.checks, err)
	}
}

type workloadFunc func(ctx context.Context, cfg config, tr *tracer, lib *device.Library) (*outcome, error)

var workloads = map[string]workloadFunc{
	"batch_exhaustive": runBatch,
	"served_prechar":   runServed,
	"path_dag":         runPath,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "batch_exhaustive | served_prechar | path_dag")
	seed := fs.Int64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 20, "timed window length")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "output directory (spans, results, digest ledger)")
	root := fs.String("root", ".", "module root hashed into the host fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *secs, *trace)
		return 2
	}
	cfg := config{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*secs * float64(time.Second)),
		trace:    *trace == 1,
		out:      *out,
		root:     *root,
		size:     defaultSizes(),
	}
	res, err := execute(context.Background(), cfg, fn)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if len(res.o.checks) > 0 {
		return 1
	}
	return 0
}

// result is a finished run: the workload's outcome plus everything the
// reporter adds around it.
type result struct {
	o       *outcome
	host    hostInfo
	metrics map[string]float64 // what the JSON line carries
	spans   int
}

func execute(ctx context.Context, cfg config, fn workloadFunc) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	lib := device.NewLibrary(device.Default180())
	o, err := fn(ctx, cfg, tr, lib)
	if err != nil {
		return nil, err
	}
	res := &result{o: o, host: currentHost(cfg.root), spans: tr.count()}
	o.check(checkDigest(filepath.Join(cfg.out, "digests.json"), ledgerKey(cfg, res.host.Source), o.digest))
	if cfg.trace {
		o.layers["trace.nets_per_s"] = o.rate
		res.metrics = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			res.metrics[m.name] = o.layers[m.name]
		}
		stem := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		if err := tr.write(filepath.Join(cfg.out, stem+".spans.json")); err != nil {
			return nil, err
		}
	} else {
		res.metrics = map[string]float64{
			"setup_s":           median(o.setup),
			"nets_per_s":        o.rate,
			"net_latency_p50_s": quantile(o.latencies, 0.50),
			"net_latency_p90_s": quantile(o.latencies, 0.90),
			"peak_rss_mb":       peakRSSMB(),
		}
	}
	if err := saveResult(cfg, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ledgerKey names everything a run's digest depends on: the code, the
// workload, its seed and its sizes.
func ledgerKey(cfg config, source string) string {
	return fmt.Sprintf("%s seed=%d %s source=%s", cfg.workload, cfg.seed, cfg.size, source)
}

// checkDigest fails when an earlier run with the same key in this
// output directory printed a different digest, and records the digest
// otherwise.
func checkDigest(ledger, key, digest string) error {
	seen := map[string]string{}
	if b, err := os.ReadFile(ledger); err == nil {
		if err := json.Unmarshal(b, &seen); err != nil {
			return fmt.Errorf("digest ledger %s: %w", ledger, err)
		}
	}
	if prev, ok := seen[key]; ok {
		if prev != digest {
			return fmt.Errorf("report digest %s differs from %s, printed earlier for %q", digest, prev, key)
		}
		return nil
	}
	seen[key] = digest
	b, err := json.MarshalIndent(seen, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(ledger, b, 0o644)
}

// digestOf hashes canonical JSON lines in sorted order.
func digestOf(lines [][]byte) string {
	sorted := append([][]byte(nil), lines...)
	sort.Slice(sorted, func(i, j int) bool { return string(sorted[i]) < string(sorted[j]) })
	h := sha256.New()
	for _, l := range sorted {
		h.Write(l)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// saveResult appends the run to results.jsonl with its host fingerprint.
func saveResult(cfg config, res *result) error {
	rec := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Seconds  float64            `json:"seconds"`
		Trace    bool               `json:"trace"`
		Time     string             `json:"time"`
		Host     hostInfo           `json:"host"`
		Digest   string             `json:"digest"`
		Metrics  map[string]float64 `json:"metrics"`
		Checks   []string           `json:"failed_checks,omitempty"`
	}{cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace, time.Now().UTC().Format(time.RFC3339),
		res.host, res.o.digest, res.metrics, nil}
	for _, err := range res.o.checks {
		rec.Checks = append(rec.Checks, err.Error())
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(cfg.out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// untracedNets finds the latest untraced nets_per_s recorded for the
// same workload and seed, for the tracing-overhead line.
func untracedNets(cfg config) (float64, bool) {
	b, err := os.ReadFile(filepath.Join(cfg.out, "results.jsonl"))
	if err != nil {
		return 0, false
	}
	var v float64
	found := false
	for _, line := range strings.Split(string(b), "\n") {
		var rec struct {
			Workload string             `json:"workload"`
			Seed     int64              `json:"seed"`
			Trace    bool               `json:"trace"`
			Metrics  map[string]float64 `json:"metrics"`
		}
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Trace || rec.Workload != cfg.workload || rec.Seed != cfg.seed {
			continue
		}
		v, found = rec.Metrics["nets_per_s"], true
	}
	return v, found
}

func report(w io.Writer, cfg config, res *result) error {
	o := res.o
	h := res.host
	fmt.Fprintf(w, "e2ebench %s seed=%d window=%v trace=%v\n", cfg.workload, cfg.seed, cfg.window, cfg.trace)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s modified=%v source=%s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, orNone(h.Revision), h.Modified, h.Source)
	fmt.Fprintf(w, "digest: %s (%s)\n", o.digest, ledgerKey(cfg, h.Source))
	for _, n := range o.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	unit := "nets"
	if cfg.workload == "path_dag" {
		unit = "stage executions"
	}
	fmt.Fprintf(w, "window: %.2f s, %d %s completed, %d attempted, %d failed\n", o.wall, o.units, unit, o.attempted, o.failed)
	fmt.Fprintf(w, "%-36s %14s  %-6s\n", "metric", "value", "unit")
	decls := endToEnd
	if cfg.trace {
		decls = perLayer
	}
	for _, m := range decls {
		fmt.Fprintf(w, "%-36s %14.6g  %-6s", m.name, res.metrics[m.name], m.unit)
		if m.moves != "" {
			fmt.Fprintf(w, "  -> %s", m.moves)
		}
		fmt.Fprintln(w)
	}
	// Printed beside every speed number but not gated (README.md says why).
	fmt.Fprintf(w, "%-36s %14.6g  %-6s\n", "failed_frac", frac(float64(o.failed), float64(o.attempted)), "ratio")
	fmt.Fprintf(w, "%-36s %14.6g  %-6s\n", "delay_noise_err_ps", o.goldenErr, "ps")
	if cfg.workload == "path_dag" {
		fmt.Fprintf(w, "%-36s %14.6g  %-6s\n", "stages_per_s", o.rate, "1/s")
	}
	if cfg.trace {
		if base, ok := untracedNets(cfg); ok {
			fmt.Fprintf(w, "tracing overhead: %d spans; nets_per_s traced %.4g - untraced %.4g = %+.4g\n",
				res.spans, o.rate, base, o.rate-base)
		} else {
			fmt.Fprintf(w, "tracing overhead: %d spans; no untraced run of this workload and seed recorded in %s\n",
				res.spans, cfg.out)
		}
	}
	for _, err := range o.checks {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", err)
	}
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: len(o.checks) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range decls {
		line.Metrics[m.name] = metricValue{res.metrics[m.name], m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err // a non-finite metric: no result line
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
