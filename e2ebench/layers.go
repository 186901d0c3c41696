package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/noiseerr"
)

// Per-layer numbers come from two sources: registry snapshots the
// program already exports (Tool.Metrics, Server.Metrics,
// Gateway.Metrics), diffed over the timed window, and clocks and
// counters in the benchmark's own code around the public calls.

// diffSnap returns after − before for counters and timers. Histograms
// cannot be diffed (the snapshot keeps only quantiles); callers read
// them from a registry that saw nothing but the window.
func diffSnap(after, before metrics.Snapshot) metrics.Snapshot {
	d := metrics.Snapshot{Counters: map[string]int64{}, Timers: map[string]metrics.TimerStat{}}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	for k, t := range after.Timers {
		b := before.Timers[k]
		d.Timers[k] = metrics.TimerStat{Count: t.Count - b.Count, TotalNs: t.TotalNs - b.TotalNs}
	}
	return d
}

// sumSnaps adds counters and timers across registries (the replicas of
// a served run).
func sumSnaps(snaps ...metrics.Snapshot) metrics.Snapshot {
	s := metrics.Snapshot{Counters: map[string]int64{}, Timers: map[string]metrics.TimerStat{}}
	for _, x := range snaps {
		for k, v := range x.Counters {
			s.Counters[k] += v
		}
		for k, t := range x.Timers {
			a := s.Timers[k]
			s.Timers[k] = metrics.TimerStat{Count: a.Count + t.Count, TotalNs: a.TotalNs + t.TotalNs}
		}
	}
	return s
}

func timerS(s metrics.Snapshot, name string) float64 {
	return float64(s.Timers[name].TotalNs) / 1e9
}

func meanS(s metrics.Snapshot, name string) float64 {
	t := s.Timers[name]
	if t.Count == 0 {
		return 0
	}
	return float64(t.TotalNs) / 1e9 / float64(t.Count)
}

func frac(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// engineTimeS is the engine's wall time inside the per-net flows: full
// analyses plus the quiet-chain analyses path runs add.
func engineTimeS(d metrics.Snapshot) float64 {
	return timerS(d, "net.analyze") + timerS(d, "net.quiet")
}

// engineLayers derives the engine-side layers (engine caches,
// delaynoise stages, align, clarinet pool) from a window's registry
// diff. units is the number of net analyses completed (stage executions
// on path runs), workers the engine workers that were available, wall
// the window length.
func engineLayers(l map[string]float64, d metrics.Snapshot, units, workers int, wall float64) {
	hitRatio := func(base string) float64 {
		h, m := d.Counters[base+".hit"], d.Counters[base+".miss"]
		return frac(float64(h), float64(h+m))
	}
	l["engine.cache.tables.hit_ratio"] = hitRatio("cache.tables")
	l["engine.cache.char_full.hit_ratio"] = hitRatio("cache.char.full")
	l["engine.cache.char_rough.hit_ratio"] = hitRatio("cache.char.rough")
	l["engine.cache.holdres.hit_ratio"] = hitRatio("cache.holdres")

	// Stage self times: stage.simulate encloses stage.reduce.
	reduce := timerS(d, noiseerr.StageReduce.TimerName())
	self := map[string]float64{
		"characterize": timerS(d, noiseerr.StageCharacterize.TimerName()),
		"reduce":       reduce,
		"simulate":     timerS(d, noiseerr.StageSimulate.TimerName()) - reduce,
		"align":        timerS(d, noiseerr.StageAlign.TimerName()),
		"holdres":      timerS(d, noiseerr.StageHoldres.TimerName()),
		"report":       timerS(d, noiseerr.StageReport.TimerName()),
	}
	engine := engineTimeS(d)
	attributed := 0.0
	for stage, s := range self {
		l["delaynoise."+stage+"_s"] = s
		l["delaynoise."+stage+"_share"] = frac(s, engine)
		attributed += s
	}
	if engine > 0 {
		l["delaynoise.unattributed_share"] = 1 - attributed/engine
	}
	n := float64(units)
	l["delaynoise.linear_sims_per_net"] = frac(float64(d.Counters["sim.linear"]), n)
	l["align.receiver_sims_per_net"] = frac(float64(d.Counters["sim.nonlinear.receiver"]), n)
	l["align.search_s_mean"] = meanS(d, noiseerr.StageAlign.TimerName())

	l["clarinet.net_s_mean"] = meanS(d, "net.analyze")
	l["clarinet.worker_busy_share"] = frac(engine, float64(workers)*wall)
	l["clarinet.rescue_attempts"] = float64(d.Counters["rescue.attempts"])
	l["clarinet.nets_failed"] = float64(d.Counters["nets.failed"])
}

// rtWindow brackets the Go runtime's allocation and GC counters and the
// process's CPU time.
type rtWindow struct {
	alloc, gcs uint64
	cpu        time.Duration
}

func readRuntime() rtWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := rtWindow{alloc: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		w.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return w
}

// runtimeLayers reports allocation and GC per window and the share of
// the machine's cores the process kept busy.
func runtimeLayers(l map[string]float64, before, after rtWindow, units int, wall float64) {
	l["runtime.alloc_mb_per_net"] = frac(float64(after.alloc-before.alloc)/(1<<20), float64(units))
	l["runtime.gc_cycles"] = float64(after.gcs - before.gcs)
	l["runtime.cpu_share"] = frac((after.cpu - before.cpu).Seconds(), float64(runtime.NumCPU())*wall)
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
