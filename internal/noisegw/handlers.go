package noisegw

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/noised"
	"repro/internal/workload"
)

// errNoReplicas sheds a request when every replica is ejected: the
// fleet is down, and queueing the work would only mask it.
var errNoReplicas = errors.New("noisegw: no healthy replicas")

// Health is the gateway /healthz payload.
type Health struct {
	Status          string          `json:"status"`
	Instance        string          `json:"instance"`
	Build           buildinfo.Info  `json:"build"`
	UptimeS         float64         `json:"uptime_s"`
	Draining        bool            `json:"draining"`
	Inflight        int64           `json:"inflight"`
	QueueDepth      int64           `json:"queue_depth"`
	ReplicasHealthy int             `json:"replicas_healthy"`
	Replicas        []replicaHealth `json:"replicas"`
}

// handleAnalyze is POST /v1/analyze.
func (g *Gateway) handleAnalyze(w http.ResponseWriter, r *http.Request) { serve(g, w, r, netUnit) }

// handleAnalyzePath is POST /v1/analyze-path.
func (g *Gateway) handleAnalyzePath(w http.ResponseWriter, r *http.Request) { serve(g, w, r, pathUnit) }

// serve is the request loop both endpoints share: validation,
// admission, the scatter, and the merge loop that streams merged
// records to the client in the replicas' own wire.
func serve[U, R, S any](g *Gateway, w http.ResponseWriter, r *http.Request, u *unit[U, R, S]) {
	g.reg.Counter(mGwRequests).Inc()
	if g.adm.Draining() {
		g.reg.Counter(mGwRejectedDraining).Inc()
		noised.Shed(w, g.cfg.RetryAfter, "draining")
		return
	}
	// The replicas' own option parser: the gateway fails fast with 400
	// on exactly the requests every replica would reject, instead of
	// scattering them and striking healthy replicas over the answer.
	opt, err := noised.ParseOptions(r, noised.Options{}, u.paths, g.cfg.MaxRequestTimeout)
	if err != nil {
		g.reg.Counter(mGwRejectedValidation).Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes)
	var file workload.FileJSON
	if err := json.NewDecoder(r.Body).Decode(&file); err != nil {
		g.reg.Counter(mGwRejectedValidation).Inc()
		http.Error(w, fmt.Sprintf("noisegw: decode: %v", err), http.StatusBadRequest)
		return
	}
	if err := u.validate(file, g.cfg.MaxNets); err != nil {
		g.reg.Counter(mGwRejectedValidation).Inc()
		status := http.StatusBadRequest
		if len(file.Cases) > g.cfg.MaxNets {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), status)
		return
	}

	switch err := g.adm.Acquire(r.Context()); err {
	case nil:
		defer g.adm.Release()
	case noised.ErrQueueFull, noised.ErrDraining:
		g.reg.Counter(mGwRejectedQueue).Inc()
		noised.Shed(w, g.cfg.RetryAfter, err.Error())
		return
	default:
		return // the client went away while queued
	}

	ctx := r.Context()
	var cancel context.CancelFunc
	if opt.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	start := time.Now()
	b := u.newBatch(g, file, start)
	run := &run[U, R, S]{
		g:         g,
		unit:      u,
		batch:     b,
		ctx:       ctx,
		query:     opt.Forward,
		requestID: opt.RequestID,
		sink:      make(chan R, 64),
	}
	if err := run.scatter(); err != nil {
		g.reg.Counter(mGwRejectedNoReplicas).Inc()
		noised.Shed(w, g.cfg.RetryAfter, err.Error())
		return
	}

	stream, contentType := u.wire.Negotiate(r, w)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set(noised.InstanceHeader, g.instance)
	if opt.RequestID != "" {
		w.Header().Set("X-Request-ID", opt.RequestID)
	}
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	rc.Flush()

	writeOK := true
	var hbC <-chan time.Time
	var hb *time.Ticker
	if g.cfg.Heartbeat > 0 {
		hb = time.NewTicker(g.cfg.Heartbeat)
		defer hb.Stop()
		hbC = hb.C
	}
merge:
	for {
		select {
		case rec, ok := <-run.sink:
			if !ok {
				break merge
			}
			b.delivered(rec)
			if !writeOK {
				continue // drain the merge after a broken pipe
			}
			if err := stream.Record(rec); err != nil {
				writeOK = false
				cancel() // stop the scatter for a client that is gone
				continue
			}
			rc.Flush()
			if hb != nil {
				hb.Reset(g.cfg.Heartbeat)
			}
		case <-hbC:
			if !writeOK {
				continue
			}
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
	// Every worker has exited: units still unfinished are definitively
	// incomplete.
	end := runEnd{ctx: ctx, requestID: opt.RequestID, elapsedMS: time.Since(start).Milliseconds(), draining: g.adm.Draining()}
	if err := b.finish(stream, end); err == nil {
		rc.Flush()
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := g.reg.Snapshot()
	replicas := g.set.health()
	healthy := 0
	for _, rh := range replicas {
		if rh.Healthy {
			healthy++
		}
	}
	h := Health{
		Status:          "ok",
		Instance:        g.instance,
		Build:           buildinfo.Current(),
		UptimeS:         time.Since(g.started).Seconds(),
		Draining:        g.adm.Draining(),
		Inflight:        snap.Gauges[mGwInflight],
		QueueDepth:      snap.Gauges[mGwQueueDepth],
		ReplicasHealthy: healthy,
		Replicas:        replicas,
	}
	switch {
	case h.Draining:
		h.Status = "draining"
	case healthy == 0:
		h.Status = "no-replicas"
	case healthy < len(replicas):
		h.Status = "degraded"
	}
	w.Header().Set(noised.InstanceHeader, g.instance)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

func (g *Gateway) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(noised.InstanceHeader, g.instance)
	if g.adm.Draining() {
		noised.Shed(w, g.cfg.RetryAfter, "draining")
		return
	}
	if len(g.set.healthyNames()) == 0 {
		noised.Shed(w, g.cfg.RetryAfter, errNoReplicas.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	g.reg.Snapshot().WriteJSON(w)
}
