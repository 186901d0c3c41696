package clarinet

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/delaynoise"
	"repro/internal/funcnoise"
	"repro/internal/noiseerr"
	"repro/internal/resilience"
)

// analyze and analyzeFunc are seams for tests that need to observe or
// fail per-net analyses without building pathological circuits
// (internal/faultinject wraps them for the chaos suite).
var (
	analyze      = delaynoise.AnalyzeContext
	analyzeQuiet = delaynoise.AnalyzeQuietContext
	analyzeFunc  = funcnoise.AnalyzeContext
)

// AnalyzeNet runs one net. A canceled context fails fast; an in-flight
// analysis is interrupted at the next solver checkpoint (see
// lsim.CtxCheckInterval and nlsim.CtxCheckInterval). Every error is
// attributed to the net and its pipeline stage via noiseerr.StageError.
//
// Resilience: when the configured policy sets a NetTimeout, the net
// runs under its own deadline and a budget overrun fails just that net
// with the noiseerr.ErrDeadline class (nets.deadline) while the batch
// continues. Convergence failures climb the policy's rescue ladder (see
// resilience.Policy); the report's Quality field records which rung
// produced the surviving result.
//
// Counters: a net aborted by the caller's context counts only in
// nets.canceled — never in nets.analyzed or nets.failed, so failure
// totals reflect real per-net outcomes, not how early the batch was
// killed.
func (t *Tool) AnalyzeNet(ctx context.Context, name string, c *delaynoise.Case) NetReport {
	return t.AnalyzeNetWindow(ctx, name, c, nil)
}

// AnalyzeNetWindow is AnalyzeNet with a switching-window constraint on
// the aggressor alignment: when win is non-nil the composite pulse peak
// is clamped to it (delaynoise.Options.Window). Path-level analysis
// uses this to thread the sta-style window/noise fixpoint through the
// pool; a nil window is exactly AnalyzeNet.
func (t *Tool) AnalyzeNetWindow(ctx context.Context, name string, c *delaynoise.Case, win *delaynoise.Window) NetReport {
	m := t.session.Metrics()
	if err := ctx.Err(); err != nil {
		m.Counter(mNetsCanceled).Inc()
		return NetReport{Name: name, Err: noiseerr.WithNet(name, noiseerr.Canceled(err))}
	}
	start := time.Now()
	pol := t.Cfg.Resilience
	netCtx := resilience.WithNet(ctx, name)
	cancel := func() {}
	if pol.NetTimeout > 0 {
		netCtx, cancel = context.WithTimeout(netCtx, pol.NetTimeout)
	}
	defer cancel()

	opt := t.analysisOptions()
	if win != nil {
		opt.Window = win
	}
	quality := resilience.QualityExact
	var res *delaynoise.Result
	var err error
	if opt.Align == delaynoise.AlignPrechar && opt.Table == nil {
		tab, terr := t.session.Table(netCtx, c.Receiver, c.Victim.OutputRising)
		if terr != nil {
			err = terr
		} else {
			opt.Table = tab
		}
	}
	if err == nil {
		res, err = analyze(netCtx, c, opt)
	}
	if err != nil && noiseerr.Class(err) == noiseerr.ErrConvergence && netCtx.Err() == nil {
		res, quality, err = t.rescue(netCtx, c, opt, pol, err)
	}
	m.Observe(mNetAnalyze, time.Since(start))

	if err != nil {
		switch {
		case ctx.Err() != nil:
			// The caller gave up on the whole batch: not a per-net
			// failure, and not analyzed either. The error is classed
			// canceled to match, even when the solver returned first
			// with its own failure (a convergence failure whose rescue
			// the cancel cut short): a journal must not record the net
			// as done, so a resumed run re-analyzes it.
			m.Counter(mNetsCanceled).Inc()
			err = noiseerr.Reclass(noiseerr.ErrCanceled, err)
		case errors.Is(netCtx.Err(), context.DeadlineExceeded):
			// The net's own budget expired while the batch kept going.
			m.Counter(mNetsAnalyzed).Inc()
			m.Counter(mNetsDeadline).Inc()
			m.Counter(mNetsFailed).Inc()
			err = noiseerr.Reclass(noiseerr.ErrDeadline, err)
		default:
			m.Counter(mNetsAnalyzed).Inc()
			m.Counter(mNetsFailed).Inc()
		}
		return NetReport{Name: name, Err: noiseerr.WithNet(name, err)}
	}
	m.Counter(mNetsAnalyzed).Inc()
	switch quality {
	case resilience.QualityRescued:
		m.Counter(mNetsRescued).Inc()
	case resilience.QualityFallback:
		m.Counter(mNetsFallback).Inc()
	default:
		m.Counter(mNetsExact).Inc()
	}
	return NetReport{Name: name, Res: res, Quality: quality}
}

// AnalyzeQuietNet runs only the quiet half of one net's analysis
// (driver characterization, noiseless victim simulation, one nonlinear
// receiver simulation — delaynoise.AnalyzeQuietContext) under the same
// session caches, per-net deadline budget, and error attribution as
// AnalyzeNet. It deliberately does not touch the nets.* outcome
// counters — those partition full noise analyses — and has no rescue
// ladder: the quiet flow has no alignment search to fall back from, and
// its simulations are the ones every full analysis already survives.
// Path-level analysis uses it for the noiseless reference chain.
func (t *Tool) AnalyzeQuietNet(ctx context.Context, name string, c *delaynoise.Case) NetReport {
	if err := ctx.Err(); err != nil {
		return NetReport{Name: name, Err: noiseerr.WithNet(name, noiseerr.Canceled(err))}
	}
	m := t.session.Metrics()
	start := time.Now()
	pol := t.Cfg.Resilience
	netCtx := resilience.WithNet(ctx, name)
	cancel := func() {}
	if pol.NetTimeout > 0 {
		netCtx, cancel = context.WithTimeout(netCtx, pol.NetTimeout)
	}
	defer cancel()
	res, err := analyzeQuiet(netCtx, c, t.analysisOptions())
	m.Observe(mNetQuiet, time.Since(start))
	if err != nil {
		if ctx.Err() == nil && errors.Is(netCtx.Err(), context.DeadlineExceeded) {
			err = noiseerr.Reclass(noiseerr.ErrDeadline, err)
		}
		return NetReport{Name: name, Err: noiseerr.WithNet(name, err)}
	}
	return NetReport{Name: name, Res: res, Quality: resilience.QualityExact}
}

// rescue climbs the policy's ladder after a convergence failure. Each
// solver rung re-runs the analysis with the rung's nlsim aids armed on
// the context; the prechar rung retries with table-driven alignment.
// Climbing stops on the first success, on any non-convergence error,
// or when the context dies (the caller maps the context's own error).
func (t *Tool) rescue(ctx context.Context, c *delaynoise.Case, opt delaynoise.Options, pol resilience.Policy, first error) (*delaynoise.Result, resilience.Quality, error) {
	err := first
	rungs := pol.Ladder()
	if len(rungs) == 0 {
		return nil, resilience.QualityExact, err
	}
	m := t.session.Metrics()
	start := time.Now()
	defer func() { m.Observe(noiseerr.StageRescue.TimerName(), time.Since(start)) }()
	for _, rung := range rungs {
		if ctx.Err() != nil {
			return nil, resilience.QualityExact, err
		}
		var res *delaynoise.Result
		var rerr error
		if rung.Prechar {
			if opt.Align == delaynoise.AlignPrechar {
				continue // the first pass was already table-driven
			}
			tab, terr := t.session.Table(ctx, c.Receiver, c.Victim.OutputRising)
			if terr != nil {
				continue // keep the original failure
			}
			fopt := opt
			fopt.Align = delaynoise.AlignPrechar
			fopt.Table = tab
			m.Counter(mRescueAttempts).Inc()
			m.Counter(mRescuePrefix + rung.Name).Inc()
			res, rerr = analyze(ctx, c, fopt)
		} else {
			m.Counter(mRescueAttempts).Inc()
			m.Counter(mRescuePrefix + rung.Name).Inc()
			res, rerr = analyze(resilience.WithSolverRescue(ctx, rung.Solver), c, opt)
		}
		if rerr == nil {
			return res, rung.Quality(), nil
		}
		err = rerr
		if noiseerr.Class(rerr) != noiseerr.ErrConvergence {
			break // numerical/canceled failures do not climb further
		}
	}
	return nil, resilience.QualityExact, err
}

// panicReport converts a recovered worker panic into a failed report:
// the batch continues, the net counts in nets.panicked (and failed),
// and the error chain carries the panic value, stack, and net name
// under the noiseerr.ErrInternal class.
func (t *Tool) panicReport(name string, p *noiseerr.PanicError) NetReport {
	m := t.session.Metrics()
	m.Counter(mNetsAnalyzed).Inc()
	m.Counter(mNetsPanicked).Inc()
	m.Counter(mNetsFailed).Inc()
	return NetReport{Name: name, Err: noiseerr.WithNet(name, noiseerr.InStage(noiseerr.StageResilience, p))}
}

// Contain runs one unit of work that no batch entry point fans out — a
// path stage (internal/pathnoise) — under the pool's panic containment:
// a panic out of f fails just that unit with the panicReport error for
// the named net instead of killing the process.
func (t *Tool) Contain(name string, f func() error) error {
	var err error
	if p := recovered(func() { err = f() }); p != nil {
		return t.panicReport(name, p).Err
	}
	return err
}

// recovered runs f and returns the panic out of it, if any, with its
// stack.
func recovered(f func()) (p *noiseerr.PanicError) {
	defer func() {
		if v := recover(); v != nil {
			p = &noiseerr.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	f()
	return nil
}

// fanOut spreads f over every index i in [0, n) across the given number
// of worker goroutines. Each index is handed to f exactly once; emit
// receives (i, f(i)) from worker goroutines and must be safe for
// concurrent use across distinct indices. Cancellation is f's job:
// the per-net workers check their context before starting real work and
// at solver checkpoints within it, so a canceled batch drains quickly
// but still emits every index.
//
// contain, when non-nil, converts a panic out of f(i) into a result so
// one poisoned net cannot sink the batch or wedge the pool (an
// unrecovered worker panic would kill the process; a swallowed one
// would deadlock Wait). A nil contain lets panics propagate.
func fanOut[R any](workers, n int, f func(int) R, emit func(int, R), contain func(int, *noiseerr.PanicError) R) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	run := f
	if contain != nil {
		run = func(i int) (r R) {
			if p := recovered(func() { r = f(i) }); p != nil {
				r = contain(i, p)
			}
			return r
		}
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				emit(i, run(i))
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// checkBatch validates the batch invariants shared by every entry point.
func checkBatch(names []string, cases []*delaynoise.Case) {
	if len(names) != len(cases) {
		panic("clarinet: names and cases length mismatch")
	}
}

// AnalyzeAll runs every net, preserving input order, with bounded
// parallelism.
func (t *Tool) AnalyzeAll(names []string, cases []*delaynoise.Case) []NetReport {
	return t.AnalyzeAllContext(context.Background(), names, cases)
}

// AnalyzeAllContext is AnalyzeAll with cancellation/deadline support.
// The returned slice is always fully populated in input order: nets not
// started when the context fires carry the context's error, and
// in-flight nets abort at the next solver checkpoint. The report order
// is deterministic regardless of worker count or completion order.
func (t *Tool) AnalyzeAllContext(ctx context.Context, names []string, cases []*delaynoise.Case) []NetReport {
	return t.AnalyzeBatch(ctx, names, cases, nil, nil)
}

// AnalyzeBatch is AnalyzeAllContext with checkpoint/resume support.
// Nets found in prior (keyed by name, e.g. from ReadJournal) are
// returned as-is without re-analysis and counted in nets.resumed; every
// freshly completed report is appended to j as it lands (nil disables
// journaling). Worker panics are contained: the poisoned net reports a
// noiseerr.ErrInternal-class failure carrying the stack, counts in
// nets.panicked, and the rest of the batch proceeds.
func (t *Tool) AnalyzeBatch(ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]NetReport, j *Journal) []NetReport {
	checkBatch(names, cases)
	m := t.session.Metrics()
	reports := make([]NetReport, len(cases))
	var pending []int
	for i, name := range names {
		if r, ok := prior[name]; ok {
			r.Name = name
			reports[i] = r
			m.Counter(mNetsResumed).Inc()
			continue
		}
		pending = append(pending, i)
	}
	fanOut(t.Cfg.Workers, len(pending),
		func(k int) NetReport { return t.AnalyzeNet(ctx, names[pending[k]], cases[pending[k]]) },
		func(k int, r NetReport) {
			reports[pending[k]] = r
			j.Record(r)
		},
		func(k int, p *noiseerr.PanicError) NetReport { return t.panicReport(names[pending[k]], p) })
	return reports
}

// Stream runs every net and delivers reports in completion order on the
// returned channel, which is closed once the batch finishes. Use this
// for progress display or incremental consumers; use AnalyzeAllContext
// when input-ordered results matter. Cancellation drains the remaining
// nets as error reports, so exactly len(cases) reports are always
// delivered. Worker panics are contained as in AnalyzeBatch.
func (t *Tool) Stream(ctx context.Context, names []string, cases []*delaynoise.Case) <-chan NetReport {
	return t.StreamBatch(ctx, names, cases, nil, nil)
}

// StreamBatch is Stream with the checkpoint/resume semantics of
// AnalyzeBatch: nets found in prior are delivered first, as-is, without
// re-analysis (counted in nets.resumed), then the remaining nets stream
// in completion order; every freshly completed report is appended to j
// as it lands (nil disables journaling). The noised serving layer is
// built on this: one request's NDJSON stream is exactly this channel,
// and a resumed request replays its journal before analyzing the rest.
// Exactly len(cases) reports are always delivered; the caller must
// drain the channel.
func (t *Tool) StreamBatch(ctx context.Context, names []string, cases []*delaynoise.Case, prior map[string]NetReport, j *Journal) <-chan NetReport {
	checkBatch(names, cases)
	m := t.session.Metrics()
	var resumed []NetReport
	var pending []int
	for i, name := range names {
		if r, ok := prior[name]; ok {
			r.Name = name
			resumed = append(resumed, r)
			m.Counter(mNetsResumed).Inc()
			continue
		}
		pending = append(pending, i)
	}
	out := make(chan NetReport)
	go func() {
		defer close(out)
		for _, r := range resumed {
			// The doc contract above bounds this goroutine: exactly
			// len(cases) reports are delivered and the caller must drain,
			// so every send completes.
			//lint:ignore noiselint/goleak the caller-must-drain contract (doc comment) bounds the sends
			out <- r
		}
		fanOut(t.Cfg.Workers, len(pending),
			func(k int) NetReport { return t.AnalyzeNet(ctx, names[pending[k]], cases[pending[k]]) },
			func(_ int, r NetReport) {
				j.Record(r)
				out <- r
			},
			func(k int, p *noiseerr.PanicError) NetReport { return t.panicReport(names[pending[k]], p) })
	}()
	return out
}

// FuncReport is the per-net outcome of a functional-noise run.
type FuncReport struct {
	Name string
	Res  *funcnoise.Result
	Err  error
}

// FunctionalAll runs the functional-noise flow on every net.
func (t *Tool) FunctionalAll(names []string, cases []*delaynoise.Case, opt funcnoise.Options) []FuncReport {
	return t.FunctionalAllContext(context.Background(), names, cases, opt)
}

// FunctionalAllContext is FunctionalAll with cancellation/deadline
// support, with the same ordering, drain, cancellation-counting, and
// panic-containment guarantees as AnalyzeBatch.
func (t *Tool) FunctionalAllContext(ctx context.Context, names []string, cases []*delaynoise.Case, opt funcnoise.Options) []FuncReport {
	checkBatch(names, cases)
	m := t.session.Metrics()
	reports := make([]FuncReport, len(cases))
	fanOut(t.Cfg.Workers, len(cases),
		func(i int) FuncReport {
			if err := ctx.Err(); err != nil {
				m.Counter(mNetsCanceled).Inc()
				return FuncReport{Name: names[i], Err: noiseerr.WithNet(names[i], noiseerr.Canceled(err))}
			}
			start := time.Now()
			res, err := analyzeFunc(ctx, cases[i], opt)
			m.Observe(mNetFunctional, time.Since(start))
			if err != nil {
				if ctx.Err() != nil {
					m.Counter(mNetsCanceled).Inc()
				} else {
					m.Counter(mNetsAnalyzed).Inc()
					m.Counter(mNetsFailed).Inc()
				}
				return FuncReport{Name: names[i], Err: noiseerr.WithNet(names[i], err)}
			}
			m.Counter(mNetsAnalyzed).Inc()
			return FuncReport{Name: names[i], Res: res}
		},
		func(i int, r FuncReport) { reports[i] = r },
		func(i int, p *noiseerr.PanicError) FuncReport {
			return FuncReport{Name: names[i], Err: t.panicReport(names[i], p).Err}
		})
	return reports
}
