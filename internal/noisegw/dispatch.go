package noisegw

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/noised"
	"repro/internal/workload"
)

// The coordinator. One run fans a request's units — net cases or whole
// paths — out as per-replica shard streams, merges their records into
// a single sink channel, and recovers from failures by re-sharding
// unfinished units onto survivors. The dispatcher is the same for both
// kinds of unit; a unit supplies, as data, only what differs (see
// unit).
//
// Exactly-once delivery rests on one invariant: a unit is finalized at
// most once, under the batch's lock, and only by a real outcome —
// success or a definitive failure. Canceled placeholders (the records
// or reports a replica emits for units cut off mid-run) never finalize,
// so the units they name stay eligible for the reshard that completes
// them. Replays — from replica-side journal resume after a shed retry,
// or from a hedged duplicate stream — hit the batch's dedupe and drop.
// Workers never fabricate failures for units they could not finish;
// the handler reports those only after every worker has exited, when
// no late stream can contradict them.

// shedJitter is the randomness seam of the shed backoff; tests pin it.
var shedJitter = rand.Float64

// maxStreamLine bounds one NDJSON line of a shard stream; a path
// summary carries every report of its shard.
const maxStreamLine = 16 << 20

// unit is one kind of work unit the gateway scatters, as the data that
// differs between nets and paths. U is the unit as the request body
// carries it, R the streamed record and S the shard summary.
type unit[U, R, S any] struct {
	noun     string // for logs: "nets" | "paths"
	endpoint string // the replica endpoint the shards go to
	family   string // sub-request ID family: "s" | "p"
	hedge    bool   // duplicate a slow shard onto another replica
	paths    bool   // the analyze-path knobs ride in the query
	wire     noised.Wire[R, S]

	name func(U) string
	key  func(U) string // consistent-hash routing key
	// parse decodes one NDJSON line of a shard stream: a record (rec
	// non-nil), the summary (sum non-nil) or a heartbeat (neither).
	parse func(line []byte) (rec *R, sum *S, err error)
	// validate checks a decoded request structurally, without a device
	// library — that validation stays at the replicas, which own the
	// engine.
	validate func(file workload.FileJSON, maxNets int) error
	// newBatch opens one validated request's merge state.
	newBatch func(g *Gateway, file workload.FileJSON, start time.Time) batch[U, R, S]
}

// batch is one request's unit-specific merge state.
type batch[U, R, S any] interface {
	units() []U
	// body serializes one shard as the replica's request body.
	body(shard []U) ([]byte, error)
	// merge folds in one streamed record; true forwards it to the client.
	merge(rec R) bool
	// adopt folds in a shard's terminal summary.
	adopt(sum *S)
	// finished reports whether a unit has reached a real outcome.
	finished(u U) bool
	// delivered tallies one record the client was sent.
	delivered(rec R)
	// finish runs once every worker has exited: it reports the units no
	// stream finished (as trailing records or summary reports) and
	// writes the summary.
	finish(stream noised.StreamWriter[R, S], end runEnd) error
}

// runEnd is the request-level part of a summary.
type runEnd struct {
	ctx       context.Context
	requestID string
	elapsedMS int64
	draining  bool
}

// run is the per-request coordinator state.
type run[U, R, S any] struct {
	g     *Gateway
	unit  *unit[U, R, S]
	batch batch[U, R, S]
	ctx   context.Context

	query     url.Values // forwarded analysis options (no request_id)
	requestID string     // the client's request_id ("" = unjournaled)

	// sink carries merged records to the handler's merge loop. It is
	// closed by the closer goroutine once every worker has exited.
	sink chan R
	wg   sync.WaitGroup
}

// scatter shards the units over the currently healthy replicas and
// spawns one worker per shard, plus the closer that ends the sink when
// the last worker — initial, reshard, or hedge — exits.
func (r *run[U, R, S]) scatter() error {
	names := r.g.set.healthyNames()
	if len(names) == 0 {
		return errNoReplicas
	}
	for name, units := range shard(r.batch.units(), r.unit.key, names) {
		r.spawn(name, units, 0)
	}
	// The closer is bounded by the workers, which are bounded by r.ctx:
	// every worker path returns once the context dies, wg drains, and
	// the close lets the handler's merge loop finish.
	//lint:ignore noiselint/goleak joins r.wg, whose workers all exit once r.ctx dies; the close unblocks the merge loop
	go func() {
		r.wg.Wait()
		close(r.sink)
	}()
	return nil
}

func (r *run[U, R, S]) spawn(replica string, units []U, attempt int) {
	r.wg.Add(1)
	//lint:ignore noiselint/goleak runShard defers wg.Done and every blocking path inside it selects on r.ctx; the closer joins the wg
	go r.runShard(replica, units, attempt)
}

// runShard drives one shard against one replica to completion, then
// re-shards whatever remains unfinished. attempt counts the reshard
// hops this slice of work has taken.
func (r *run[U, R, S]) runShard(replica string, units []U, attempt int) {
	defer r.wg.Done()
	leftover, avoid := r.streamShard(replica, units, attempt)
	leftover = r.unfinished(leftover)
	if len(leftover) == 0 || r.ctx.Err() != nil {
		return
	}
	if attempt >= r.g.cfg.MaxReshards {
		r.g.cfg.Logf("noisegw: %d %s exhausted their %d reshard hops", len(leftover), r.unit.noun, r.g.cfg.MaxReshards)
		return // the handler reports them after wg.Wait
	}
	targets := r.g.set.healthyNames()
	if avoid {
		targets = r.g.set.healthyExcept(replica)
	}
	if len(targets) == 0 {
		r.g.cfg.Logf("noisegw: %d %s unassigned: no healthy replicas to reshard onto", len(leftover), r.unit.noun)
		return
	}
	r.g.reg.Counter(mGwReshards).Inc()
	r.g.cfg.Logf("noisegw: resharding %d %s from %s over %d replicas (hop %d)",
		len(leftover), r.unit.noun, replica, len(targets), attempt+1)
	for name, units := range shard(leftover, r.unit.key, targets) {
		r.spawn(name, units, attempt+1)
	}
}

// streamShard runs the shard's sub-request against one replica,
// absorbing shed (503) responses with capped jittered backoff. avoid
// reports that the reshard should go elsewhere: true after a replica
// failure (struck) or an exhausted shed budget (saturated).
func (r *run[U, R, S]) streamShard(replica string, units []U, attempt int) (leftover []U, avoid bool) {
	body, err := r.batch.body(units)
	if err != nil {
		r.g.cfg.Logf("noisegw: shard body: %v", err)
		return units, true
	}
	sheds := 0
	for {
		outcome, retryAfter := r.streamOnce(replica, units, body, attempt)
		switch outcome {
		case streamDone:
			r.g.set.clearStrikes(replica)
			// Normally nothing is left; canceled units (replica deadline,
			// drain) remain for the caller to reshard.
			return units, false
		case streamShed:
			sheds++
			if sheds > r.g.cfg.ShedRetries {
				return units, true
			}
			if !r.sleepShed(sheds, retryAfter) {
				return nil, false // run context died while backing off
			}
		case streamFailed:
			r.g.set.strike(replica)
			return units, true
		default: // streamCtxDone
			return nil, false
		}
	}
}

// sleepShed backs off between shed retries: exponential from
// ShedBackoff, floored by the replica's capped Retry-After hint,
// jittered ±50%. Reports false when the run context died first.
func (r *run[U, R, S]) sleepShed(sheds int, retryAfter time.Duration) bool {
	d := r.g.cfg.ShedBackoff << (sheds - 1)
	if d > r.g.cfg.MaxShedBackoff || d <= 0 {
		d = r.g.cfg.MaxShedBackoff
	}
	if retryAfter > r.g.cfg.MaxShedBackoff {
		retryAfter = r.g.cfg.MaxShedBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	d = time.Duration(float64(d) * (0.5 + shedJitter()))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// streamOutcome classifies one sub-request.
type streamOutcome int

const (
	streamDone    streamOutcome = iota // summary arrived; the stream is complete
	streamShed                         // 503/429: the replica asked us to back off
	streamFailed                       // connect error, torn tail, or stall: strike and reshard
	streamCtxDone                      // the run's own context died
)

// streamEvent is one parsed element of a shard stream.
type streamEvent[R, S any] struct {
	rec *R
	sum *S
	err error
}

// streamOnce opens one sub-request and consumes its stream, merging
// records as they arrive. The watchdog turns silence into failure: any
// event (records and heartbeats alike) resets the stall timer, so a
// stream that goes quiet past StallTimeout — a SIGKILLed replica whose
// socket lingers, a stalled response — is canceled and counted. For a
// unit that hedges, a stream with no progress past HedgeAfter is
// duplicated onto another replica (once) while this one keeps running;
// paths do not hedge, since a duplicated path re-runs every stage,
// which the dedupe would mask but the fleet would still pay for.
func (r *run[U, R, S]) streamOnce(replica string, units []U, body []byte, attempt int) (streamOutcome, time.Duration) {
	subctx, subcancel := context.WithCancel(r.ctx)
	defer subcancel()
	shardStart := time.Now()

	u := replica + r.unit.endpoint
	if q := r.subQuery(units); q != "" {
		u += "?" + q
	}
	req, err := http.NewRequestWithContext(subctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return streamFailed, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.g.client.Do(req)
	if err != nil {
		if r.ctx.Err() != nil {
			return streamCtxDone, 0
		}
		return streamFailed, 0
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		r.g.reg.Counter(mGwShardShed).Inc()
		return streamShed, noised.ParseRetryAfter(resp.Header.Get("Retry-After"))
	default:
		// The replica rejected a request the gateway already validated —
		// a version skew or a bug, not load. Treat it as a failure so
		// the work moves elsewhere.
		r.g.cfg.Logf("noisegw: replica %s answered %s to %s", replica, resp.Status, r.unit.endpoint)
		return streamFailed, 0
	}
	r.g.reg.Counter(mGwShardStreams).Inc()

	events := make(chan streamEvent[R, S])
	// The reader is bounded by subctx (canceled on every return path
	// above/below): each send selects on it, and body reads unblock
	// when the request context dies.
	go readShardStream(subctx, resp.Body, r.unit.parse, events)

	stall := time.NewTimer(r.g.cfg.StallTimeout)
	defer stall.Stop()
	var hedgeC <-chan time.Time
	if r.unit.hedge && r.g.cfg.HedgeAfter > 0 {
		hedge := time.NewTimer(r.g.cfg.HedgeAfter)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	for {
		select {
		case ev, ok := <-events:
			if !ok || ev.err != nil {
				// EOF without a summary, a scan error, a torn frame: the
				// replica died mid-stream.
				r.g.reg.Counter(mGwShardTorn).Inc()
				return streamFailed, 0
			}
			if !stall.Stop() {
				select {
				case <-stall.C:
				default:
				}
			}
			stall.Reset(r.g.cfg.StallTimeout)
			switch {
			case ev.sum != nil:
				r.batch.adopt(ev.sum)
				r.g.reg.Histogram(mGwShardLatency).Observe(time.Since(shardStart))
				return streamDone, 0
			case ev.rec != nil && r.batch.merge(*ev.rec):
				select {
				case r.sink <- *ev.rec:
				case <-r.ctx.Done():
				}
			}
		case <-stall.C:
			r.g.reg.Counter(mGwShardStalled).Inc()
			r.g.cfg.Logf("noisegw: replica %s stream stalled past %v", replica, r.g.cfg.StallTimeout)
			return streamFailed, 0
		case <-hedgeC:
			r.g.reg.Counter(mGwHedges).Inc()
			r.hedgeShard(replica, units, attempt)
		case <-r.ctx.Done():
			return streamCtxDone, 0
		}
	}
}

// hedgeShard duplicates a slow shard's unfinished units onto another
// healthy replica; the batch's dedupe makes whichever stream answers
// first win and the loser's replays drop.
func (r *run[U, R, S]) hedgeShard(replica string, units []U, attempt int) {
	rest := r.unfinished(units)
	if len(rest) == 0 {
		return
	}
	targets := r.g.set.healthyExcept(replica)
	if len(targets) == 0 {
		return
	}
	r.g.cfg.Logf("noisegw: hedging %d slow %s from %s", len(rest), r.unit.noun, replica)
	for name, units := range shard(rest, r.unit.key, targets) {
		r.spawn(name, units, attempt+1)
	}
}

// readShardStream parses a replica's NDJSON stream into events. It is
// bounded by ctx: every send has a cancellation arm, and the channel
// close signals end of stream.
func readShardStream[R, S any](ctx context.Context, body io.Reader, parse func([]byte) (*R, *S, error), events chan<- streamEvent[R, S]) {
	defer close(events)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, sum, err := parse(line)
		if err != nil {
			select {
			case events <- streamEvent[R, S]{err: fmt.Errorf("noisegw: malformed stream line: %w", err)}:
			case <-ctx.Done():
			}
			return
		}
		select {
		case events <- streamEvent[R, S]{rec: rec, sum: sum}:
		case <-ctx.Done():
			return
		}
		if sum != nil {
			return
		}
	}
	if err := sc.Err(); err != nil {
		select {
		case events <- streamEvent[R, S]{err: err}:
		case <-ctx.Done():
		}
	}
}

// unfinished filters units down to those no stream has finalized.
func (r *run[U, R, S]) unfinished(units []U) []U {
	var out []U
	for _, u := range units {
		if !r.batch.finished(u) {
			out = append(out, u)
		}
	}
	return out
}

// subQuery renders one shard's query string: the forwarded analysis
// options plus the derived sub-request ID.
func (r *run[U, R, S]) subQuery(units []U) string {
	q := url.Values{}
	for k, vs := range r.query {
		q[k] = vs
	}
	if id := r.subRequestID(units); id != "" {
		q.Set("request_id", id)
	}
	return q.Encode()
}

// subRequestID derives a stable per-shard journal identity from the
// client's request_id and the shard's unit names: a shed retry of the
// same shard presents the same ID, so the replica's journal replays the
// units it already finished instead of re-analyzing them. A different
// shard (after a reshard) gets a different ID, so journals never mix
// shards, and each unit kind has its own ID family. Without a client ID
// there is no journaling.
func (r *run[U, R, S]) subRequestID(units []U) string {
	if r.requestID == "" {
		return ""
	}
	h := fnv.New64a()
	for _, u := range units {
		h.Write([]byte(r.unit.name(u)))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s-%s%08x", r.requestID, r.unit.family, h.Sum64()&0xffffffff)
}
