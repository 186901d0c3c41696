package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// runBatch is batch_exhaustive: the paper's reference flow, as the
// clarinet CLI runs it. The window is a sequence of rounds; each round
// is one cold clarinet.Tool (exhaustive alignment, transient hold, one
// worker per core, rescue ladder armed) streaming a batch of unique
// DefaultProfile nets (see stratifiedPopulation), drain tail included;
// anotherRound sizes the window.
func runBatch(ctx context.Context, cfg config, tr *tracer, lib *device.Library) (*outcome, error) {
	sz := cfg.size
	rounds := int(math.Ceil(cfg.window.Seconds())) + 1
	all, err := stratifiedPopulation(lib, workload.DefaultProfile(), cfg.seed, rounds*sz.batchRound)
	if err != nil {
		return nil, err
	}
	allNames := make([]string, len(all))
	for i := range allNames {
		allNames[i] = fmt.Sprintf("n%d", i)
	}
	var file bytes.Buffer
	if err := workload.Save(&file, lib.Tech.Name, allNames, all); err != nil {
		return nil, err
	}

	reg := metrics.NewRegistry()
	toolCfg := clarinet.Config{
		Align:   delaynoise.AlignExhaustive,
		Hold:    delaynoise.HoldTransient,
		Workers: sz.workers,
		Metrics: reg,
		// The production rescue ladder (clarinet -rescue).
		Resilience: resilience.DefaultPolicy(),
	}
	o := &outcome{layers: map[string]float64{}}

	// Set-up: decode the case file and build the first round's tool.
	var names []string
	var cases []*delaynoise.Case
	var tool *clarinet.Tool
	var decode []float64
	setup := func() error {
		start := time.Now()
		sp := tr.begin("workload.Load", 0)
		n, c, err := workload.Load(bytes.NewReader(file.Bytes()), lib)
		tr.end(sp)
		if err != nil {
			return err
		}
		decode = append(decode, time.Since(start).Seconds())
		sp = tr.begin("clarinet.New", 0)
		t, err := clarinet.New(lib, toolCfg)
		tr.end(sp)
		if err != nil {
			return err
		}
		o.setup = append(o.setup, time.Since(start).Seconds())
		names, cases, tool = n, c, t
		return nil
	}
	if err := repeat(sz.setupReps, setup); err != nil {
		return nil, err
	}

	before, rt := reg.Snapshot(), readRuntime()
	var first [][]byte      // round 0's records, for the digest
	var sample []goldenItem // round 0's analyzed nets
	tail := 0.0
	start := time.Now()
	for r := 0; anotherRound(start, cfg.window, r); r++ {
		lo, hi := r*sz.batchRound, (r+1)*sz.batchRound
		if hi > len(cases) {
			o.notes = append(o.notes, "population exhausted before the window ended")
			break
		}
		if r > 0 {
			if tool, err = clarinet.New(lib, toolCfg); err != nil {
				return nil, err
			}
		}
		index := map[string]int{} // position in the population
		for i := lo; i < hi; i++ {
			index[names[i]] = i
		}
		seen := map[string]int{}
		var arrivals []float64
		sp := tr.begin("Tool.StreamBatch", 0)
		t0 := time.Now()
		for rep := range tool.StreamBatch(ctx, names[lo:hi], cases[lo:hi], nil, nil) {
			at := time.Since(t0).Seconds()
			tr.event(sp, rep.Name)
			arrivals = append(arrivals, at)
			// The pool hands nets to its workers in input order, a worker
			// taking the next net once its record is delivered: the i-th
			// net starts with the round when i < workers, else at the
			// (i−workers+1)-th record. Latency runs from there.
			started := 0.0
			if k := index[rep.Name] - lo - sz.workers; k >= 0 {
				started = arrivals[k]
			}
			o.latencies = append(o.latencies, at-started)
			seen[rep.Name]++
			o.attempted++
			if rep.Err != nil {
				o.failed++
				continue
			}
			o.units++
			if r == 0 {
				rec, _ := clarinet.ToRecord(rep)
				b, err := json.Marshal(rec)
				if err != nil {
					return nil, err
				}
				first = append(first, b)
				sample = append(sample, goldenItem{rep.Name, cases[index[rep.Name]], rep.Res})
			}
		}
		tr.end(sp)
		o.check(exactlyOnce(names[lo:hi], seen))
		tail += drainTail(arrivals, sz.workers)
	}
	o.wall = time.Since(start).Seconds()
	o.rate = frac(float64(o.units), o.wall)
	rtAfter := readRuntime()
	d := diffSnap(reg.Snapshot(), before)
	if err := repeat(sz.setupReps, setup); err != nil {
		return nil, err
	}

	engineLayers(o.layers, d, o.units, sz.workers, o.wall)
	runtimeLayers(o.layers, rt, rtAfter, o.units, o.wall)
	o.layers["workload.decode_s"] = median(decode)
	o.layers["clarinet.drain_tail_s"] = tail
	o.digest = digestOf(first)

	sort.Slice(sample, func(i, j int) bool { return sample[i].name < sample[j].name })
	var items []goldenItem
	for _, i := range sampleIndices(cfg.seed, len(sample), sz.goldenSample) {
		items = append(items, sample[i])
	}
	if o.goldenErr, err = goldenErrPS(ctx, tr, items, sz.workers); err != nil {
		return nil, err
	}
	o.layers["delaynoise.golden_err_ps"] = o.goldenErr
	return o, nil
}

// stratifiedPopulation draws n nets of the profile in blocks that hold
// one net per receiver cell, in seeded order. Each net follows the
// profile's distribution given its receiver cell and the cells keep the
// profile's uniform mix, but every block carries the whole mix. The
// receiver cell explains most of a net's exhaustive-alignment cost
// (~60% of its variance on this profile), so runs of different seeds
// then hold far more similar amounts of work.
func stratifiedPopulation(lib *device.Library, p workload.Profile, seed int64, n int) ([]*delaynoise.Case, error) {
	rng := rand.New(rand.NewSource(seed))
	gens := make([]*workload.Generator, len(p.ReceiverCells))
	for i, cell := range p.ReceiverCells {
		q := p
		q.ReceiverCells = []string{cell}
		gens[i] = workload.NewGenerator(lib, q, rng.Int63())
	}
	out := make([]*delaynoise.Case, 0, n)
	var block []int
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			block = rng.Perm(len(gens))
		}
		c, err := gens[block[0]].Next(i)
		if err != nil {
			return nil, err
		}
		block = block[1:]
		out = append(out, c)
	}
	return out, nil
}

// anotherRound reports whether to start round r: rounds start while the
// window, less half a typical round, has not elapsed, so the rounds'
// total lands on the window on average. Round 0 always runs.
func anotherRound(start time.Time, window time.Duration, r int) bool {
	if r == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(2*r) < window
}

// drainTail is a round's tail: from the (N−workers)-th record to the
// last one, the stretch where workers idle for want of nets.
func drainTail(arrivals []float64, workers int) float64 {
	n := len(arrivals)
	if n <= workers {
		return 0
	}
	return arrivals[n-1] - arrivals[n-1-workers]
}

// exactlyOnce checks that every submitted name produced exactly one
// terminal record and nothing else arrived.
func exactlyOnce(names []string, seen map[string]int) error {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
		if seen[n] != 1 {
			return fmt.Errorf("net %s: %d terminal records, want 1", n, seen[n])
		}
	}
	for n := range seen {
		if !want[n] {
			return fmt.Errorf("record for unknown net %s", n)
		}
	}
	return nil
}
