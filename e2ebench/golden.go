package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/delaynoise"
)

// goldenItem is one analyzed net to check against the nonlinear golden.
type goldenItem struct {
	name string
	c    *delaynoise.Case
	res  *delaynoise.Result
}

// sampleIndices picks k of n indices, seeded, in ascending order.
func sampleIndices(seed int64, n, k int) []int {
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	if k < n {
		idx = idx[:k]
	}
	sort.Ints(idx)
	return idx
}

// goldenErrPS is the mean |reported delay noise − golden| in ps, the
// golden being the full nonlinear simulation with every aggressor
// shifted to the reported alignment (delaynoise.GoldenAtShifts at
// PeakShifts(NoisePeakTimes, TPeak)). It runs off the clock.
func goldenErrPS(ctx context.Context, tr *tracer, items []goldenItem, workers int) (float64, error) {
	if len(items) == 0 {
		return 0, nil
	}
	sp := tr.begin("delaynoise.GoldenAtShifts", 0)
	defer tr.end(sp)
	errs := make([]float64, len(items))
	var mu sync.Mutex
	var first error
	parallel(len(items), workers, func(i int) {
		it := items[i]
		g, err := delaynoise.GoldenAtShiftsContext(ctx, it.c, delaynoise.PeakShifts(it.res.NoisePeakTimes, it.res.TPeak))
		if err != nil {
			mu.Lock()
			if first == nil {
				first = fmt.Errorf("golden for %s: %w", it.name, err)
			}
			mu.Unlock()
			return
		}
		errs[i] = math.Abs(g.DelayNoise-it.res.DelayNoise) * 1e12
		tr.event(sp, it.name)
	})
	if first != nil {
		return 0, first
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(errs)), nil
}

// parallel runs f(0..n-1) on at most workers goroutines and waits.
func parallel(n, workers int, f func(i int)) {
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
