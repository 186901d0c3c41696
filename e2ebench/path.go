package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pathnoise"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// runPath is path_dag: windowed, chained stage analyses where the DAG
// dependencies bound throughput. Each round is one pathnoise.Run over a
// fresh clarinet.Tool (receiver-input alignment, transient hold, one
// worker per core, rescue ladder armed, pathnoise's default fixpoint)
// on 2×nproc long paths.
// anotherRound sizes the window. The unit of work is one
// stage execution (one stage record), so nets_per_s is stages per
// second here, and a record's latency runs from the moment its stage
// became ready (its predecessor's record arrived, or the run began).
func runPath(ctx context.Context, cfg config, tr *tracer, lib *device.Library) (*outcome, error) {
	sz := cfg.size
	rounds := int(math.Ceil(cfg.window.Seconds()/2)) + 1
	gen := workload.NewGenerator(lib, workload.DefaultProfile(), cfg.seed)
	genNames, genCases, genPaths, err := gen.PathPopulation(rounds*sz.pathCount, sz.pathStages)
	if err != nil {
		return nil, err
	}
	var file bytes.Buffer
	if err := workload.SavePaths(&file, lib.Tech.Name, genNames, genCases, genPaths); err != nil {
		return nil, err
	}

	reg := metrics.NewRegistry()
	toolCfg := clarinet.Config{
		Align:   delaynoise.AlignReceiverInput,
		Hold:    delaynoise.HoldTransient,
		Workers: sz.workers,
		Metrics: reg,
		// The production rescue ladder: convergence failures retry with
		// solver aids, counted in clarinet.rescue_attempts.
		Resilience: resilience.DefaultPolicy(),
	}
	o := &outcome{layers: map[string]float64{}}

	var paths []*pathnoise.Path
	var tool *clarinet.Tool
	var decode []float64
	setup := func() error {
		start := time.Now()
		sp := tr.begin("workload.LoadPaths", 0)
		_, _, p, err := workload.LoadPaths(bytes.NewReader(file.Bytes()), lib)
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
		paths, tool = p, t
		return nil
	}
	if err := repeat(sz.setupReps, setup); err != nil {
		return nil, err
	}

	before, rt := reg.Snapshot(), readRuntime()
	var firstPaths []*pathnoise.Path
	var firstRecs []pathnoise.StageRecord
	start := time.Now()
	for r := 0; anotherRound(start, cfg.window, r); r++ {
		lo, hi := r*sz.pathCount, (r+1)*sz.pathCount
		if hi > len(paths) {
			o.notes = append(o.notes, "path population exhausted before the window ended")
			break
		}
		if r > 0 {
			if tool, err = clarinet.New(lib, toolCfg); err != nil {
				return nil, err
			}
		}
		var recs []pathnoise.StageRecord
		sp := tr.begin("pathnoise.Run", 0)
		t0 := time.Now()
		ready := map[string]time.Time{} // when each path's next stage became ready
		reports, err := pathnoise.Run(ctx, tool, paths[lo:hi], pathnoise.Options{
			Emit: func(rec pathnoise.StageRecord) {
				now := time.Now()
				tr.event(sp, fmt.Sprintf("%s/%d/%d", rec.Path, rec.Stage, rec.Iter))
				since, ok := ready[rec.Path]
				if !ok {
					since = t0
				}
				o.latencies = append(o.latencies, now.Sub(since).Seconds())
				ready[rec.Path] = now
				recs = append(recs, rec)
			},
		})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		o.check(checkStages(paths[lo:hi], recs))
		for _, rec := range recs {
			o.attempted++
			if rec.Error != "" {
				o.failed++
			} else {
				o.units++
			}
		}
		if r == 0 {
			b, err := pathnoise.MarshalReport(reports)
			if err != nil {
				return nil, err
			}
			o.digest = digestOf([][]byte{b})
			firstPaths, firstRecs = paths[lo:hi], recs
		}
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
	stage := timerS(d, "path.stage")
	o.layers["pathnoise.stage_s_mean"] = meanS(d, "path.stage")
	o.layers["pathnoise.worker_busy_share"] = frac(stage, float64(sz.workers)*o.wall)
	o.layers["pathnoise.engine_share"] = frac(engineTimeS(d), stage)
	o.layers["pathnoise.iterations_per_path"] = frac(float64(d.Counters["paths.iterations"]), float64(d.Counters["paths.analyzed"]))

	items, err := stageZeroItems(ctx, lib, toolCfg, firstPaths, firstRecs, o)
	if err != nil {
		return nil, err
	}
	if o.goldenErr, err = goldenErrPS(ctx, tr, items, sz.workers); err != nil {
		return nil, err
	}
	o.layers["delaynoise.golden_err_ps"] = o.goldenErr
	return o, nil
}

// checkStages holds a round's records to the scheduler's contract:
// every (path, stage, iteration) node ran at most once and each path
// ended in exactly one Done record.
func checkStages(paths []*pathnoise.Path, recs []pathnoise.StageRecord) error {
	nodes := map[pathnoise.StageKey]bool{}
	done := map[string]int{}
	for _, rec := range recs {
		if nodes[rec.Key()] {
			return fmt.Errorf("path %s stage %d iteration %d ran twice", rec.Path, rec.Stage, rec.Iter)
		}
		nodes[rec.Key()] = true
		if rec.Done {
			done[rec.Path]++
		}
	}
	for _, p := range paths {
		if done[p.Name] != 1 {
			return fmt.Errorf("path %s: %d terminal records, want 1", p.Name, done[p.Name])
		}
	}
	return nil
}

// stageZeroItems re-runs the first-pass stage 0 of each path of the
// first round as a plain per-net analysis, off the clock. Stage 0 of
// pass 1 has the workload's own victim input and no window, so the
// path engine and the per-net engine must agree bit for bit; the
// re-run also supplies the noise peak times the golden check needs.
func stageZeroItems(ctx context.Context, lib *device.Library, toolCfg clarinet.Config, paths []*pathnoise.Path, recs []pathnoise.StageRecord, o *outcome) ([]goldenItem, error) {
	toolCfg.Metrics = nil
	tool, err := clarinet.New(lib, toolCfg)
	if err != nil {
		return nil, err
	}
	byKey := map[pathnoise.StageKey]pathnoise.StageRecord{}
	for _, rec := range recs {
		byKey[rec.Key()] = rec
	}
	var items []goldenItem
	for _, p := range paths {
		st := p.Stages[0]
		rec, ok := byKey[pathnoise.StageKey{Path: p.Name, Stage: 0, Iter: 0}]
		if !ok || rec.Result == nil {
			continue
		}
		rep := tool.AnalyzeNet(ctx, st.Net, st.Case)
		if rep.Err != nil {
			return nil, rep.Err
		}
		if rep.Res.DelayNoise != rec.Result.StageNoise || rep.Res.TPeak != rec.Result.TPeak {
			o.check(fmt.Errorf("path %s stage 0: path engine noise %g at %g, per-net engine %g at %g",
				p.Name, rec.Result.StageNoise, rec.Result.TPeak, rep.Res.DelayNoise, rep.Res.TPeak))
		}
		items = append(items, goldenItem{st.Net, st.Case, rep.Res})
	}
	return items, nil
}
