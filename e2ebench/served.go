package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clarinet"
	"repro/internal/delaynoise"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/noised"
	"repro/internal/noised/client"
	"repro/internal/noisegw"
	"repro/internal/resilience"
	"repro/internal/warmstore"
	"repro/internal/workload"
)

// runServed is served_prechar: closed-loop noised/client callers →
// noisegw.Gateway → in-process noised.Server replicas on loopback
// listeners, one worker each, prechar alignment, transient hold, rescue
// ladder armed. Each request carries fresh nets from the caller's
// seeded stream plus earlier nets resubmitted under new names (ECO
// re-analysis traffic).
// Replicas start with every alignment table the profile's receiver
// cells need, built in set-up and handed over through a warm store.
func runServed(ctx context.Context, cfg config, tr *tracer, lib *device.Library) (*outcome, error) {
	sz := cfg.size
	o := &outcome{layers: map[string]float64{}}

	profile := workload.DefaultProfile()
	if sz.receivers > 0 {
		profile.ReceiverCells = profile.ReceiverCells[:sz.receivers]
	}

	// Inputs: one case file of fresh nets per caller.
	perCaller := sz.reqFresh * (4*int(math.Ceil(cfg.window.Seconds())) + 4)
	seeds := rand.New(rand.NewSource(cfg.seed))
	files := make([][]byte, sz.clients)
	callerSeeds := make([]int64, sz.clients)
	for c := range files {
		callerSeeds[c] = seeds.Int63()
		gen := workload.NewGenerator(lib, profile, callerSeeds[c])
		cases, err := gen.Population(perCaller)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(cases))
		for i := range names {
			names[i] = fmt.Sprintf("c%dn%d", c, i)
		}
		var b bytes.Buffer
		if err := workload.Save(&b, lib.Tech.Name, names, cases); err != nil {
			return nil, err
		}
		files[c] = b.Bytes()
	}

	warmDir := filepath.Join(cfg.out, fmt.Sprintf("warm-%d", os.Getpid()))
	defer os.RemoveAll(warmDir)
	setupStart := time.Now()
	cl, err := startCluster(ctx, cfg, tr, lib, profile, files, warmDir, o)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	o.setup = []float64{time.Since(setupStart).Seconds()}
	o.notes = append(o.notes, "set-up runs once: it builds every alignment table (see README.md)")

	// Warm-up, off the clock, through the twin gateway: each caller's
	// first request seeds its pool of nets to resubmit.
	callers := make([]*caller, sz.clients)
	for c := range callers {
		callers[c] = &caller{id: c, tech: lib.Tech.Name, stream: cl.streams[c], rng: rand.New(rand.NewSource(callerSeeds[c]))}
	}
	if err := eachCaller(callers, func(c int, k *caller) error {
		return k.send(ctx, cl.warmClients[c], tr, sz.reqFresh+sz.reqResubmit, 0, false)
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	before := cl.snapshots()
	rt := readRuntime()
	start := time.Now()
	deadline := start.Add(cfg.window)
	err = eachCaller(callers, func(c int, k *caller) error {
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			if err := k.send(ctx, cl.clients[c], tr, sz.reqFresh, sz.reqResubmit, true); err != nil {
				return err
			}
		}
		return nil
	})
	o.wall = time.Since(start).Seconds()
	after, rtAfter := cl.snapshots(), readRuntime()
	if err != nil {
		return nil, err
	}

	// Outcome and output checks. The callers stop sending at the
	// deadline and their last requests run to completion, under falling
	// load; nets_per_s counts only the records that arrived before it.
	inWindow := 0
	var prefix [][]byte // warm-up plus each caller's first timed request
	first := map[string]clarinet.JournalRecord{}
	for _, k := range callers {
		for i, req := range k.reqs {
			o.check(req.check())
			for _, name := range req.names {
				rec, ok := req.recs[name]
				o.attempted++
				if !ok || rec.Error != "" {
					o.failed++
					continue
				}
				if req.timed {
					o.units++
					o.latencies = append(o.latencies, req.arrived[name].Sub(req.sent).Seconds())
					if req.arrived[name].Before(deadline) {
						inWindow++
					}
				}
				if _, resub := req.origin[name]; !resub {
					first[name] = rec
				}
				if i <= 1 {
					b, err := json.Marshal(rec)
					if err != nil {
						return nil, err
					}
					prefix = append(prefix, b)
				}
			}
		}
	}
	for _, k := range callers {
		for _, req := range k.reqs {
			o.check(checkResubmits(req, first))
		}
	}
	o.digest = digestOf(prefix)
	o.rate = frac(float64(inWindow), cfg.window.Seconds())
	servedLayers(o, cl, callers, before, after)
	runtimeLayers(o.layers, rt, rtAfter, o.units, o.wall)

	// Golden sample: re-run in-process over one replica's session, off
	// the clock; the re-run must reproduce the served records byte for
	// byte and supplies the noise peak times the golden needs.
	items, err := rerunSample(ctx, cfg, tr, cl, callers, first, o)
	if err != nil {
		return nil, err
	}
	if o.goldenErr, err = goldenErrPS(ctx, tr, items, sz.workers); err != nil {
		return nil, err
	}
	o.layers["delaynoise.golden_err_ps"] = o.goldenErr
	return o, nil
}

// eachCaller runs f for every caller concurrently and returns their
// errors, joined, once all have finished.
func eachCaller(callers []*caller, f func(c int, k *caller) error) error {
	errs := make([]error, len(callers))
	var wg sync.WaitGroup
	for c, k := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = f(c, k)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// cluster is the served stack: replicas, the measured gateway, its
// warm-up twin, their listeners, and the callers' clients.
type cluster struct {
	replicas    []*noised.Server
	gw          *noisegw.Gateway // measured; its warm-up twin needs no handle
	servers     []*httpServer
	transports  []*http.Transport
	wire        *countingTransport
	clients     []*client.Client
	warmClients []*client.Client
	streams     []stream
}

// stream is one caller's decoded case file.
type stream struct {
	names []string
	cases []*delaynoise.Case
}

func startCluster(ctx context.Context, cfg config, tr *tracer, lib *device.Library, profile workload.Profile, files [][]byte, warmDir string, o *outcome) (cl *cluster, err error) {
	sz := cfg.size
	cl = &cluster{}
	defer func() {
		if err != nil {
			cl.stop()
		}
	}()
	decodeStart := time.Now()
	for _, f := range files {
		sp := tr.begin("workload.Load", 0)
		names, cases, err := workload.Load(bytes.NewReader(f), lib)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cl.streams = append(cl.streams, stream{names, cases})
	}
	o.layers["workload.decode_s"] = time.Since(decodeStart).Seconds()

	replicaCfg := noised.Config{
		Hold:           delaynoise.HoldTransient,
		Align:          delaynoise.AlignPrechar,
		UseConfigAlign: true,
		Workers:        1,
		Resilience:     resilience.DefaultPolicy(),
	}
	sp := tr.begin("noised.New", 0)
	first, err := noised.New(replicaCfg)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	cl.replicas = append(cl.replicas, first)

	// Every table the profile's receiver cells need, built through the
	// first replica's session and saved for the others to load.
	tablesStart := time.Now()
	type key struct {
		cell   string
		rising bool
	}
	var keys []key
	for _, cell := range profile.ReceiverCells {
		keys = append(keys, key{cell, true}, key{cell, false})
	}
	tableErrs := make([]error, len(keys))
	parallel(len(keys), sz.workers, func(i int) {
		cell, err := first.Session().Cell(keys[i].cell)
		if err != nil {
			tableErrs[i] = err
			return
		}
		sp := tr.begin("Session.Table", 0)
		_, tableErrs[i] = first.Session().Table(ctx, cell, keys[i].rising)
		tr.end(sp)
	})
	for _, err := range tableErrs {
		if err != nil {
			return nil, err
		}
	}
	store, err := warmstore.Open(warmDir, nil)
	if err != nil {
		return nil, err
	}
	if err := first.Session().SaveWarm(store); err != nil {
		return nil, err
	}
	o.layers["engine.tables_build_s"] = time.Since(tablesStart).Seconds()
	replicaCfg.WarmStoreDir = warmDir
	for len(cl.replicas) < sz.replicas {
		sp := tr.begin("noised.New", 0)
		r, err := noised.New(replicaCfg)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		cl.replicas = append(cl.replicas, r)
	}
	// Replicas go by stable names, dialed at their loopback listeners:
	// the gateway's hash ring is built from the names, so random ports
	// would reshuffle the bucket-to-replica assignment on every run.
	var urls []string
	listeners := map[string]string{}
	for i, r := range cl.replicas {
		if n := r.Session().TableCount(); n != len(keys) {
			return nil, fmt.Errorf("replica %d starts with %d alignment tables, want %d", i, n, len(keys))
		}
		s, err := serveHTTP(r.Handler())
		if err != nil {
			return nil, err
		}
		cl.servers = append(cl.servers, s)
		host := fmt.Sprintf("noised-%d:80", i)
		listeners[host] = s.addr
		urls = append(urls, "http://"+host)
	}
	var dialer net.Dialer
	dial := func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := listeners[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}

	// The measured gateway and its warm-up twin route identically: the
	// shard hash depends only on the replica names. The twin keeps the
	// warm-up out of the measured gateway's latency histograms, which
	// cannot be diffed.
	newGateway := func() (*noisegw.Gateway, string, error) {
		t := &http.Transport{MaxIdleConnsPerHost: 16, DialContext: dial}
		cl.transports = append(cl.transports, t)
		sp := tr.begin("noisegw.New", 0)
		g, err := noisegw.New(noisegw.Config{Replicas: urls, HTTPClient: &http.Client{Transport: t}})
		tr.end(sp)
		if err != nil {
			return nil, "", err
		}
		g.ProbeReplicas(ctx)
		s, err := serveHTTP(g.Handler())
		if err != nil {
			return nil, "", err
		}
		cl.servers = append(cl.servers, s)
		return g, s.url, nil
	}
	var gwURL, warmURL string
	if cl.gw, gwURL, err = newGateway(); err != nil {
		return nil, err
	}
	if _, warmURL, err = newGateway(); err != nil {
		return nil, err
	}
	base := &http.Transport{MaxIdleConnsPerHost: sz.clients}
	cl.transports = append(cl.transports, base)
	cl.wire = &countingTransport{base: base}
	for range files {
		c, err := client.New(client.Config{BaseURL: gwURL, HTTPClient: &http.Client{Transport: cl.wire}})
		if err != nil {
			return nil, err
		}
		w, err := client.New(client.Config{BaseURL: warmURL, HTTPClient: &http.Client{Transport: base}})
		if err != nil {
			return nil, err
		}
		cl.clients = append(cl.clients, c)
		cl.warmClients = append(cl.warmClients, w)
	}
	return cl, nil
}

func (cl *cluster) stop() {
	for _, s := range cl.servers {
		s.close()
	}
	for _, t := range cl.transports {
		t.CloseIdleConnections()
	}
}

// clusterSnap is every registry of the served stack at one instant.
type clusterSnap struct {
	replicas []metrics.Snapshot
	gw       metrics.Snapshot
	wire     int64
}

func (cl *cluster) snapshots() clusterSnap {
	s := clusterSnap{gw: cl.gw.Metrics().Snapshot(), wire: cl.wire.n.Load()}
	for _, r := range cl.replicas {
		s.replicas = append(s.replicas, r.Metrics().Snapshot())
	}
	return s
}

func servedLayers(o *outcome, cl *cluster, callers []*caller, before, after clusterSnap) {
	var diffs []metrics.Snapshot
	var busy []float64
	maxBusy, minBusy, total := 0.0, math.Inf(1), 0.0
	for i := range cl.replicas {
		d := diffSnap(after.replicas[i], before.replicas[i])
		diffs = append(diffs, d)
		b := timerS(d, "net.analyze")
		busy = append(busy, b)
		total += b
		maxBusy, minBusy = math.Max(maxBusy, b), math.Min(minBusy, b)
	}
	d := sumSnaps(diffs...)
	engineLayers(o.layers, d, o.units, len(cl.replicas), o.wall)
	o.layers["noised.busy_share.max"] = frac(maxBusy, o.wall)
	o.layers["noised.busy_share.min"] = frac(minBusy, o.wall)
	o.layers["noised.imbalance"] = frac(maxBusy, total/float64(len(busy)))
	o.layers["noised.shards"] = float64(d.Counters["server.requests"])
	o.layers["noised.rejected"] = float64(d.Counters["server.rejected.queue"] +
		d.Counters["server.rejected.draining"] + d.Counters["server.rejected.validation"])

	g := diffSnap(after.gw, before.gw)
	h := cl.gw.Metrics().Histogram("gw.shard.latency")
	o.layers["noisegw.shard_latency_p50_s"] = h.Quantile(0.50) / 1e9
	o.layers["noisegw.shard_latency_p90_s"] = h.Quantile(0.90) / 1e9
	o.layers["noisegw.shards_per_request"] = frac(float64(g.Counters["gw.shard.streams"]), float64(g.Counters["gw.requests"]))
	o.layers["noisegw.reshards"] = float64(g.Counters["gw.reshards"])
	o.layers["noisegw.hedges"] = float64(g.Counters["gw.hedges"])
	o.layers["noisegw.shard_shed"] = float64(g.Counters["gw.shard.shed"])

	var firstRec []float64
	for _, k := range callers {
		for _, req := range k.reqs {
			if req.timed {
				firstRec = append(firstRec, req.firstRecord.Sub(req.sent).Seconds())
			}
		}
	}
	o.layers["client.first_record_s_p50"] = median(firstRec)
	o.layers["client.wire_bytes_per_net"] = frac(float64(after.wire-before.wire), float64(o.units))
}

// caller is one closed-loop client: its stream of fresh nets, its pool
// of nets already analyzed (the resubmission candidates), and the
// requests it sent.
type caller struct {
	id     int
	tech   string
	stream stream
	next   int // next fresh net in stream
	pool   []int
	rng    *rand.Rand
	reqs   []*request
}

// request is one analyze call and what came back.
type request struct {
	timed       bool
	sent        time.Time
	names       []string
	origin      map[string]string // resubmitted name -> original name
	recs        map[string]clarinet.JournalRecord
	deliveries  map[string]int
	arrived     map[string]time.Time
	firstRecord time.Time
	err         error
}

// send builds and submits one request of fresh nets plus resubmitted
// pool nets, and waits for it to finish.
func (k *caller) send(ctx context.Context, c *client.Client, tr *tracer, fresh, resubmit int, timed bool) error {
	if k.next+fresh > len(k.stream.names) {
		return fmt.Errorf("caller %d: stream of %d fresh nets exhausted", k.id, len(k.stream.names))
	}
	req := &request{
		timed:      timed,
		origin:     map[string]string{},
		recs:       map[string]clarinet.JournalRecord{},
		deliveries: map[string]int{},
		arrived:    map[string]time.Time{},
	}
	var cases []*delaynoise.Case
	for i := 0; i < fresh; i++ {
		req.names = append(req.names, k.stream.names[k.next])
		cases = append(cases, k.stream.cases[k.next])
		k.pool = append(k.pool, k.next)
		k.next++
	}
	// Resubmissions come from nets analyzed by earlier requests.
	earlier := k.pool[:len(k.pool)-fresh]
	for _, j := range k.rng.Perm(len(earlier))[:min(resubmit, len(earlier))] {
		orig := k.stream.names[earlier[j]]
		name := fmt.Sprintf("%s.r%d", orig, len(k.reqs))
		req.names = append(req.names, name)
		req.origin[name] = orig
		cases = append(cases, k.stream.cases[earlier[j]])
	}
	var body bytes.Buffer
	if err := workload.Save(&body, k.tech, req.names, cases); err != nil {
		return err
	}
	sp := tr.begin("client.Analyze", 0)
	req.sent = time.Now()
	// The client calls back synchronously, one record at a time.
	_, req.err = c.Analyze(ctx, body.Bytes(), client.Options{Hold: "transient", Align: "prechar"}, func(rec clarinet.JournalRecord) {
		at := time.Now()
		tr.event(sp, rec.Net)
		if rec.Class == "canceled" {
			return
		}
		if len(req.arrived) == 0 {
			req.firstRecord = at
		}
		req.deliveries[rec.Net]++
		req.recs[rec.Net] = rec
		req.arrived[rec.Net] = at
	})
	tr.end(sp)
	k.reqs = append(k.reqs, req)
	return nil
}

// check holds one request to the delivery contract: every submitted net
// yields exactly one terminal record.
func (r *request) check() error {
	if r.err != nil {
		return fmt.Errorf("analyze request: %w", r.err)
	}
	return exactlyOnce(r.names, r.deliveries)
}

// checkResubmits fails when a resubmitted net's record differs, name
// aside, from its first occurrence's.
func checkResubmits(r *request, first map[string]clarinet.JournalRecord) error {
	for name, orig := range r.origin {
		got, ok := r.recs[name]
		if !ok {
			continue // counted as failed already
		}
		want, ok := first[orig]
		if !ok {
			return fmt.Errorf("resubmitted net %s: no record for its original %s", name, orig)
		}
		got.Net, want.Net = "", ""
		gb, err := json.Marshal(got)
		if err != nil {
			return err
		}
		wb, err := json.Marshal(want)
		if err != nil {
			return err
		}
		if !bytes.Equal(gb, wb) {
			return fmt.Errorf("resubmitted net %s differs from its first occurrence %s:\n got %s\nwant %s", name, orig, gb, wb)
		}
	}
	return nil
}

// rerunSample draws the golden sample from the fresh nets of each
// caller's warm-up and first timed request, re-analyzes it in-process
// over the first replica's session, and checks the re-run against the
// served records byte for byte.
func rerunSample(ctx context.Context, cfg config, tr *tracer, cl *cluster, callers []*caller, first map[string]clarinet.JournalRecord, o *outcome) ([]goldenItem, error) {
	var names []string
	var cases []*delaynoise.Case
	for _, k := range callers {
		for _, req := range k.reqs[:min(2, len(k.reqs))] {
			for _, name := range req.names {
				if _, resub := req.origin[name]; resub {
					continue
				}
				if _, ok := first[name]; !ok {
					continue
				}
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	byName := map[string]*delaynoise.Case{}
	for _, k := range callers {
		for i, n := range k.stream.names {
			byName[n] = k.stream.cases[i]
		}
	}
	var sample []string
	for _, i := range sampleIndices(cfg.seed, len(names), cfg.size.goldenSample) {
		sample = append(sample, names[i])
		cases = append(cases, byName[names[i]])
	}
	tool, err := clarinet.New(nil, clarinet.Config{
		Session:    cl.replicas[0].Session(),
		Align:      delaynoise.AlignPrechar,
		Hold:       delaynoise.HoldTransient,
		Workers:    cfg.size.workers,
		Resilience: resilience.DefaultPolicy(),
	})
	if err != nil {
		return nil, err
	}
	sp := tr.begin("Tool.AnalyzeBatch", 0)
	reps := tool.AnalyzeBatch(ctx, sample, cases, nil, nil)
	tr.end(sp)
	var items []goldenItem
	for i, rep := range reps {
		if rep.Err != nil {
			return nil, rep.Err
		}
		got, err := json.Marshal(clarinet.ToWireRecord(rep))
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(first[rep.Name])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(got, want) {
			o.check(fmt.Errorf("in-process re-run of %s differs from the served record:\n got %s\nwant %s", rep.Name, got, want))
		}
		items = append(items, goldenItem{rep.Name, cases[i], rep.Res})
	}
	return items, nil
}

// httpServer serves one handler on a loopback listener.
type httpServer struct {
	srv  *http.Server
	addr string // host:port of the listener
	url  string
	done chan error
}

func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	s := &httpServer{srv: &http.Server{Handler: h}, addr: addr, url: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, dropping open connections, and waits for its
// accept loop to return.
func (s *httpServer) close() {
	s.srv.Close()
	<-s.done
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	base http.RoundTripper
	n    atomic.Int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		t.n.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
