package noised

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/noiseerr"
	"repro/internal/pathnoise"
	"repro/internal/resilience"
	"repro/internal/workload"
)

// Summary is the final NDJSON line of an analyze stream: the request's
// aggregate outcome. Its wrapper object {"summary": ...} has no "net"
// field, so journal readers skip it and stream readers can tell it from
// a per-net record.
type Summary struct {
	RequestID string `json:"request_id,omitempty"`
	Nets      int    `json:"nets"`
	OK        int    `json:"ok"`
	Failed    int    `json:"failed"`
	Canceled  int    `json:"canceled"`
	Resumed   int    `json:"resumed"`
	ElapsedMS int64  `json:"elapsed_ms"`
	// Deadline marks a stream cut short by the per-request timeout;
	// Draining marks one that ran during shutdown. Both are retry
	// hints for the client.
	Deadline bool `json:"deadline,omitempty"`
	Draining bool `json:"draining,omitempty"`
}

// StreamLine is one NDJSON line of the analyze response: a per-net
// record (Net non-empty), a keepalive heartbeat (Heartbeat true, no
// other fields), or the terminal summary. Record consumers that predate
// heartbeats already skip them: a heartbeat line has an empty Net, the
// same shape they ignore for the summary.
type StreamLine struct {
	clarinet.JournalRecord
	Heartbeat bool     `json:"heartbeat,omitempty"`
	Summary   *Summary `json:"summary,omitempty"`
}

// Health is the /healthz payload.
type Health struct {
	Status       string         `json:"status"`
	Instance     string         `json:"instance"`
	Build        buildinfo.Info `json:"build"`
	UptimeS      float64        `json:"uptime_s"`
	Draining     bool           `json:"draining"`
	Inflight     int64          `json:"inflight"`
	QueueDepth   int64          `json:"queue_depth"`
	TablesCached int            `json:"tables_cached"`
	NetsAnalyzed int64          `json:"nets_analyzed"`
}

// InstanceHeader carries the server's random per-process identity on
// every analyze, healthz, and readyz response. The gateway compares it
// across probes: a changed instance behind the same address means the
// replica restarted, not blipped.
const InstanceHeader = "X-Noised-Instance"

// requestIDPattern bounds request IDs to filesystem- and header-safe
// names, since they become journal file names.
var requestIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,99}$`)

// ValidRequestID reports whether id is acceptable as a request_id —
// the gateway validates client IDs against the same rule before
// deriving its per-shard sub-request IDs from them.
func ValidRequestID(id string) bool { return requestIDPattern.MatchString(id) }

// Options are the per-request knobs of the analyze endpoints, parsed
// from the query string and the X-Request-ID header over a caller's
// defaults. The server overlays its configured defaults; a gateway
// parses with zero defaults to validate what it forwards, so the two
// accept and reject exactly the same requests.
type Options struct {
	Hold       delaynoise.HoldModel
	Align      delaynoise.AlignMethod
	Rescue     bool
	NetTimeout time.Duration
	Timeout    time.Duration
	RequestID  string

	// The analyze-path knobs.
	PathIterations int
	PathTimeout    time.Duration

	// Forward holds every recognized analysis parameter exactly as
	// received (request_id excluded), for a gateway to pass on.
	Forward url.Values
}

// optionParsers is the analyze query surface in one table: each entry
// parses its parameter into Options; path marks the analyze-path-only
// knobs, which /v1/analyze ignores.
var optionParsers = []struct {
	key   string
	path  bool
	parse func(o *Options, v string) error
}{
	{"hold", false, func(o *Options, v string) (err error) { o.Hold, err = clarinet.ParseHold(v); return err }},
	{"align", false, func(o *Options, v string) (err error) { o.Align, err = clarinet.ParseAlign(v); return err }},
	{"rescue", false, func(o *Options, v string) (err error) {
		if o.Rescue, err = strconv.ParseBool(v); err != nil {
			return noiseerr.Invalidf("noised: bad rescue %q: %w", v, err)
		}
		return nil
	}},
	{"net_timeout", false, func(o *Options, v string) (err error) {
		o.NetTimeout, err = parseDuration("net_timeout", v)
		return err
	}},
	{"timeout", false, func(o *Options, v string) (err error) {
		o.Timeout, err = parseDuration("timeout", v)
		return err
	}},
	{"path_iterations", true, func(o *Options, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxPathIterations {
			return noiseerr.Invalidf("noised: bad path_iterations %q (want 1..%d)", v, maxPathIterations)
		}
		o.PathIterations = n
		return nil
	}},
	{"path_timeout", true, func(o *Options, v string) (err error) {
		o.PathTimeout, err = parseDuration("path_timeout", v)
		return err
	}},
}

// parseDuration reads a non-negative duration knob.
func parseDuration(key, v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, noiseerr.Invalidf("noised: bad %s %q", key, v)
	}
	return d, nil
}

// ParseOptions validates the query parameters of an analyze request
// over def. paths adds the analyze-path knobs. A positive maxTimeout
// caps Timeout and applies when the request sends none.
func ParseOptions(r *http.Request, def Options, paths bool, maxTimeout time.Duration) (Options, error) {
	q := r.URL.Query()
	opt := def
	opt.Forward = url.Values{}
	for _, p := range optionParsers {
		v := q.Get(p.key)
		if v == "" || (p.path && !paths) {
			continue
		}
		if err := p.parse(&opt, v); err != nil {
			return opt, err
		}
		opt.Forward.Set(p.key, v)
	}
	if maxTimeout > 0 && (opt.Timeout <= 0 || opt.Timeout > maxTimeout) {
		opt.Timeout = maxTimeout
	}
	opt.RequestID = r.Header.Get("X-Request-ID")
	if v := q.Get("request_id"); v != "" {
		opt.RequestID = v
	}
	if opt.RequestID != "" && !ValidRequestID(opt.RequestID) {
		return opt, noiseerr.Invalidf("noised: bad request_id %q (want %s)", opt.RequestID, requestIDPattern)
	}
	return opt, nil
}

// unit is one kind of analyzed unit — a net's case or a path — as the
// data the shared request loop (serve) needs: which knobs ride in the
// query, the journal file suffix, the streamed-records counter, the
// response wire, and how a request body becomes a job. T is what the
// analysis emits, R the wire record and S the summary.
type unit[T, R, S any] struct {
	paths      bool
	journalExt string
	streamed   string
	wire       Wire[R, S]
	// load decodes and validates a request body; status is the HTTP
	// status of a rejection.
	load func(s *Server, body io.Reader) (j job[T, R, S], status int, err error)
}

// job is one accepted analyze request's unit-specific half.
type job[T, R, S any] interface {
	// openJournal opens the server-side journal at path, loading what an
	// earlier attempt at the same request ID completed; it reports how
	// many units that was.
	openJournal(s *Server, path string) (resumed int, closeJournal func() error, err error)
	// run starts the analysis. The channel carries its outcomes in
	// completion order and closes once the run has ended.
	run(ctx context.Context, s *Server, tool *clarinet.Tool, opt Options) <-chan T
	// record tallies one outcome and renders it for the wire.
	record(out T) R
	// summary renders the terminal summary once run's channel closed.
	summary(end runEnd) *S
}

// runEnd is the request-level part of a summary.
type runEnd struct {
	requestID string
	elapsedMS int64
	deadline  bool
	draining  bool
}

// serve is the analyze request loop both endpoints share: admission,
// the per-request tool, the server-side journal, the per-request
// deadline, the heartbeat-interleaved record stream, and the terminal
// summary.
func serve[T, R, S any](s *Server, w http.ResponseWriter, r *http.Request, u *unit[T, R, S]) {
	s.reg.Counter(mServerRequests).Inc()
	if s.adm.Draining() {
		s.reg.Counter(mServerRejectedDraining).Inc()
		Shed(w, s.cfg.RetryAfter, "draining")
		return
	}
	opt, err := ParseOptions(r, s.defaultOptions(), u.paths, s.cfg.MaxRequestTimeout)
	if err != nil {
		s.reg.Counter(mServerRejectedValidation).Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	j, status, err := u.load(s, r.Body)
	if err != nil {
		s.reg.Counter(mServerRejectedValidation).Inc()
		http.Error(w, err.Error(), status)
		return
	}

	// Admission: wait for an analysis slot in the bounded queue.
	switch err := s.adm.Acquire(r.Context()); err {
	case nil:
		defer s.adm.Release()
	case ErrQueueFull, ErrDraining:
		s.reg.Counter(mServerRejectedQueue).Inc()
		Shed(w, s.cfg.RetryAfter, err.Error())
		return
	default:
		// The client went away while queued; nothing to answer.
		return
	}

	pol := s.requestPolicy(opt)
	if opt.NetTimeout > 0 {
		pol.NetTimeout = opt.NetTimeout
	}
	tool, err := clarinet.New(nil, clarinet.Config{
		Session:    s.session,
		Hold:       opt.Hold,
		Align:      opt.Align,
		Workers:    s.cfg.Workers,
		Resilience: pol,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	// Server-side journal: replay a resubmitted request's completed
	// units, then append the new ones.
	if path, ok := s.journalPath(opt.RequestID, u.journalExt); ok {
		resumed, closeJournal, err := j.openJournal(s, path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer closeJournal()
		if resumed > 0 {
			s.reg.Counter(mServerRequestsResumed).Inc()
		}
	}

	// The stream context: the request context (client disconnect)
	// bounded by the per-request deadline, and cancelable from the
	// write path so a broken pipe stops the pool promptly.
	ctx := r.Context()
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	stream, contentType := u.wire.Negotiate(r, w)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set(InstanceHeader, s.instance)
	if opt.RequestID != "" {
		w.Header().Set("X-Request-ID", opt.RequestID)
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// Push the header out now: the client should learn the request was
	// accepted before the first (possibly slow) unit completes.
	rc.Flush()

	start := time.Now()
	writeOK := true
	// Heartbeats keep an idle stream distinguishable from a dead
	// server: whenever no record has gone out for a full interval, an
	// empty keepalive line/frame does. The ticker resets on every real
	// record so a busy stream never carries them.
	var hbC <-chan time.Time
	var hb *time.Ticker
	if s.cfg.Heartbeat > 0 {
		hb = time.NewTicker(s.cfg.Heartbeat)
		defer hb.Stop()
		hbC = hb.C
	}
	outs := j.run(ctx, s, tool, opt)
stream:
	for {
		select {
		case out, ok := <-outs:
			if !ok {
				break stream
			}
			rec := j.record(out)
			if !writeOK {
				continue // keep draining the run after a broken pipe
			}
			s.reg.Counter(u.streamed).Inc()
			if err := stream.Record(rec); err != nil {
				writeOK = false
				cancel() // stop analyzing for a client that is gone
				continue
			}
			rc.Flush()
			if hb != nil {
				hb.Reset(s.cfg.Heartbeat)
			}
		case <-hbC:
			if !writeOK {
				continue
			}
			s.reg.Counter(mServerHeartbeats).Inc()
			if err := stream.Heartbeat(); err != nil {
				writeOK = false
				cancel()
				continue
			}
			rc.Flush()
		}
	}
	if !writeOK {
		return
	}
	sum := j.summary(runEnd{
		requestID: opt.RequestID,
		elapsedMS: time.Since(start).Milliseconds(),
		deadline:  ctx.Err() == context.DeadlineExceeded,
		draining:  s.adm.Draining(),
	})
	if err := stream.Summary(sum); err == nil {
		rc.Flush()
	}
}

// defaultOptions are the server's configured per-request defaults.
func (s *Server) defaultOptions() Options {
	return Options{
		Hold:           s.cfg.Hold,
		Align:          s.cfg.Align,
		Rescue:         s.cfg.Resilience.Enabled(),
		NetTimeout:     s.cfg.NetTimeout,
		PathIterations: pathnoise.DefaultMaxIterations,
	}
}

// handleAnalyze is POST /v1/analyze.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) { serve(s, w, r, netUnit) }

// netUnit serves the cases of a workload file through the clarinet
// pool, one journal record per net.
var netUnit = &unit[clarinet.NetReport, clarinet.JournalRecord, Summary]{
	journalExt: ".journal",
	streamed:   mServerNetsStreamed,
	wire:       NetWire,
	load: func(s *Server, body io.Reader) (job[clarinet.NetReport, clarinet.JournalRecord, Summary], int, error) {
		names, cases, err := workload.Load(body, s.session.Lib())
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if len(cases) == 0 {
			return nil, http.StatusBadRequest, noiseerr.Invalidf("noised: empty case set")
		}
		if len(cases) > s.cfg.MaxNets {
			return nil, http.StatusRequestEntityTooLarge,
				noiseerr.Invalidf("noised: %d nets exceeds the per-request limit %d", len(cases), s.cfg.MaxNets)
		}
		return &netJob{names: names, cases: cases}, 0, nil
	},
}

// netJob is one /v1/analyze request.
type netJob struct {
	names   []string
	cases   []*delaynoise.Case
	prior   map[string]clarinet.NetReport
	journal *clarinet.Journal
	sum     Summary
}

func (j *netJob) openJournal(s *Server, path string) (int, func() error, error) {
	prior, err := readPriorJournal(path)
	if err != nil {
		return 0, nil, err
	}
	journal, closeJournal, err := clarinet.OpenJournal(path, s.cfg.JournalFormat)
	if err != nil {
		return 0, nil, err
	}
	j.prior, j.journal = prior, journal
	return len(prior), closeJournal, nil
}

func (j *netJob) run(ctx context.Context, s *Server, tool *clarinet.Tool, _ Options) <-chan clarinet.NetReport {
	return s.runBatch(tool, ctx, j.names, j.cases, j.prior, j.journal)
}

func (j *netJob) record(rep clarinet.NetReport) clarinet.JournalRecord {
	switch {
	case rep.Err == nil:
		j.sum.OK++
	case noiseerr.Class(rep.Err) == noiseerr.ErrCanceled:
		j.sum.Canceled++
	default:
		j.sum.Failed++
	}
	return clarinet.ToWireRecord(rep)
}

func (j *netJob) summary(end runEnd) *Summary {
	sum := j.sum
	sum.RequestID, sum.Nets, sum.Resumed = end.requestID, len(j.cases), len(j.prior)
	sum.ElapsedMS, sum.Deadline, sum.Draining = end.elapsedMS, end.deadline, end.draining
	return &sum
}

// requestPolicy resolves the resilience policy for one request: the
// configured ladder (or the default one) when rescue is on, nothing
// when the request disabled it.
func (s *Server) requestPolicy(opt Options) resilience.Policy {
	if !opt.Rescue {
		return resilience.Policy{}
	}
	if s.cfg.Resilience.Enabled() {
		return s.cfg.Resilience
	}
	return resilience.DefaultPolicy()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	h := Health{
		Status:       "ok",
		Instance:     s.instance,
		Build:        buildinfo.Current(),
		UptimeS:      time.Since(s.started).Seconds(),
		Draining:     s.adm.Draining(),
		Inflight:     snap.Gauges[mServerInflight],
		QueueDepth:   snap.Gauges[mServerQueueDepth],
		TablesCached: s.session.TableCount(),
		NetsAnalyzed: snap.Counters["nets.analyzed"],
	}
	if h.Draining {
		h.Status = "draining"
	}
	w.Header().Set(InstanceHeader, s.instance)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(InstanceHeader, s.instance)
	if s.adm.Draining() {
		Shed(w, s.cfg.RetryAfter, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.reg.Snapshot().WriteJSON(w)
}
