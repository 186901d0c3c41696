package noised

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrQueueFull is returned by Acquire when the wait queue is at
// capacity; handlers map it to 503 + Retry-After.
var ErrQueueFull = errors.New("admission queue full")

// ErrDraining is returned by Acquire once the gate has begun its
// graceful drain.
var ErrDraining = errors.New("draining")

// Gate is a load gate: a semaphore of work slots fronted by a bounded
// wait queue. Its instantaneous state is exported through two gauges,
// the load signals counters cannot express. A replica gates analysis
// slots behind server.inflight and server.queue_depth; the gateway
// gates coordination slots behind gw.inflight and gw.queue_depth, so
// it sheds its clients rather than queueing unboundedly on a saturated
// fleet.
type Gate struct {
	slots    chan struct{}
	mu       sync.Mutex
	queued   int
	maxQueue int
	drained  atomic.Bool

	inflight   *metrics.Gauge
	queueDepth *metrics.Gauge
}

// NewGate builds a gate of maxInflight slots and a maxQueue-deep wait
// queue reporting into the two gauges.
func NewGate(maxInflight, maxQueue int, inflight, queueDepth *metrics.Gauge) *Gate {
	return &Gate{
		slots:      make(chan struct{}, maxInflight),
		maxQueue:   maxQueue,
		inflight:   inflight,
		queueDepth: queueDepth,
	}
}

// Drain makes every later Acquire fail with ErrDraining.
func (g *Gate) Drain() { g.drained.Store(true) }

// Draining reports whether Drain has been called.
func (g *Gate) Draining() bool { return g.drained.Load() }

// Acquire claims a slot, waiting in the bounded queue when every slot
// is busy. It fails fast with ErrDraining during shutdown, with
// ErrQueueFull when the queue is at capacity, and with the context's
// error when the caller gives up while queued. On success the caller
// must Release.
func (g *Gate) Acquire(ctx context.Context) error {
	if g.Draining() {
		return ErrDraining
	}
	// Fast path: a free slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		g.inflight.Inc()
		return nil
	default:
	}
	g.mu.Lock()
	if g.queued >= g.maxQueue {
		g.mu.Unlock()
		return ErrQueueFull
	}
	g.queued++
	g.queueDepth.Set(int64(g.queued))
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.queued--
		g.queueDepth.Set(int64(g.queued))
		g.mu.Unlock()
	}()
	select {
	case g.slots <- struct{}{}:
		g.inflight.Inc()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot claimed by Acquire.
func (g *Gate) Release() {
	<-g.slots
	g.inflight.Dec()
}

// Shed answers one request 503 with the Retry-After backoff hint,
// rounded up to whole seconds so a sub-second hint does not collapse to
// "0".
func Shed(w http.ResponseWriter, retryAfter time.Duration, reason string) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, reason, http.StatusServiceUnavailable)
}

// ParseRetryAfter reads a delay-seconds Retry-After value, the only
// form Shed emits; anything else maps to zero.
func ParseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
