package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/journal"
	"repro/internal/noiseerr"
)

// pinJitter makes the backoff schedule deterministic for the test.
func pinJitter(t *testing.T) {
	t.Helper()
	orig := jitter
	jitter = func() float64 { return 0.5 }
	t.Cleanup(func() { jitter = orig })
}

// okRecord renders one successful wire record for net.
func okRecord(net string) string {
	rec := clarinet.JournalRecord{
		Net:     net,
		Quality: "exact",
		Result:  &clarinet.JournalResult{DelayNoise: 1e-12, Iterations: 1},
	}
	b, _ := json.Marshal(rec)
	return string(b) + "\n"
}

func canceledRecord(net string) string {
	rec := clarinet.JournalRecord{
		Net:   net,
		Class: "canceled",
		Error: "net " + net + ": context canceled",
	}
	b, _ := json.Marshal(rec)
	return string(b) + "\n"
}

func summaryLine(nets, ok int, deadline bool) string {
	return fmt.Sprintf(`{"summary":{"nets":%d,"ok":%d,"deadline":%v}}`+"\n", nets, ok, deadline)
}

// colblobBody renders a binary wire body: one record frame per net,
// then (unless empty) sum as the JSON payload of a summary frame.
func colblobBody(t *testing.T, sum string, nets ...string) string {
	t.Helper()
	var buf bytes.Buffer
	rw := journal.NewWriter(&buf, journal.Binary, clarinet.RecordCodec)
	for _, n := range nets {
		rec := clarinet.JournalRecord{
			Net:     n,
			Quality: "exact",
			Result:  &clarinet.JournalResult{DelayNoise: 1e-12, Iterations: 1},
		}
		if err := rw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if sum != "" {
		buf.Write(colblob.AppendFrame(nil, colblob.FrameSummary, []byte(sum)))
	}
	return buf.String()
}

// scriptedServer answers the i-th attempt with the i-th script entry;
// each entry is a status code plus a raw body. A negative status means
// "stream the body with 200, NDJSON style".
type scriptedServer struct {
	t       *testing.T
	scripts []scriptStep
	calls   int
}

type scriptStep struct {
	status      int
	body        string
	retryAfter  string
	contentType string // streamed 200 body's Content-Type; NDJSON default
}

func (s *scriptedServer) handler(w http.ResponseWriter, r *http.Request) {
	if s.calls >= len(s.scripts) {
		s.t.Errorf("unexpected attempt %d", s.calls+1)
		http.Error(w, "script exhausted", http.StatusInternalServerError)
		return
	}
	step := s.scripts[s.calls]
	s.calls++
	if step.status > 0 {
		if step.retryAfter != "" {
			w.Header().Set("Retry-After", step.retryAfter)
		}
		http.Error(w, step.body, step.status)
		return
	}
	ct := step.contentType
	if ct == "" {
		ct = "application/x-ndjson"
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(step.body))
}

func newScripted(t *testing.T, steps ...scriptStep) (*scriptedServer, *Client) {
	return newScriptedWire(t, "", steps...)
}

func newScriptedWire(t *testing.T, wire string, steps ...scriptStep) (*scriptedServer, *Client) {
	t.Helper()
	pinJitter(t)
	s := &scriptedServer{t: t, scripts: steps}
	ts := httptest.NewServer(http.HandlerFunc(s.handler))
	t.Cleanup(ts.Close)
	c, err := New(Config{
		BaseURL:     ts.URL,
		Wire:        wire,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		MaxAttempts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestRetryAfterShed: a 503 shed response is retried and the retried
// stream's outcome is returned as if nothing happened.
func TestRetryAfterShed(t *testing.T) {
	srv, c := newScripted(t,
		scriptStep{status: http.StatusServiceUnavailable, body: "queue full", retryAfter: "0"},
		scriptStep{body: okRecord("a") + okRecord("b") + summaryLine(2, 2, false)},
	)
	var streamed []string
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, func(rec clarinet.JournalRecord) {
		streamed = append(streamed, rec.Net)
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.calls != 2 || res.Attempts != 2 {
		t.Fatalf("calls = %d attempts = %d, want 2/2", srv.calls, res.Attempts)
	}
	if len(res.Reports) != 2 || res.Summary.Nets != 2 || res.Summary.OK != 2 {
		t.Fatalf("result = %+v", res)
	}
	if strings.Join(streamed, ",") != "a,b" {
		t.Fatalf("streamed = %v", streamed)
	}
}

// TestMidStreamRetryDeduplicates: a stream that dies before its summary
// is retried, and nets replayed by the second attempt are not delivered
// or reported twice.
func TestMidStreamRetryDeduplicates(t *testing.T) {
	_, c := newScripted(t,
		scriptStep{body: okRecord("a")}, // dies without a summary
		scriptStep{body: okRecord("a") + okRecord("b") + summaryLine(2, 2, false)},
	)
	var streamed []string
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, func(rec clarinet.JournalRecord) {
		streamed = append(streamed, rec.Net)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %+v, want a and b once each", res.Reports)
	}
	if strings.Join(streamed, ",") != "a,b" {
		t.Fatalf("streamed = %v, want each net once", streamed)
	}
}

// TestCanceledSuperseded: a canceled placeholder from a dying stream is
// replaced by the real outcome a retry produces.
func TestCanceledSuperseded(t *testing.T) {
	_, c := newScripted(t,
		scriptStep{body: canceledRecord("a")}, // server died mid-request
		scriptStep{body: okRecord("a") + summaryLine(1, 1, false)},
	)
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %+v, want just a", res.Reports)
	}
	if res.Reports[0].Err != nil {
		t.Fatalf("net a still canceled after retry: %v", res.Reports[0].Err)
	}
}

// TestPermanentRejection: a 4xx is not retried and classifies as an
// invalid case.
func TestPermanentRejection(t *testing.T) {
	srv, c := newScripted(t,
		scriptStep{status: http.StatusBadRequest, body: "noised: unknown alignment method"},
	)
	_, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, nil)
	if err == nil || !errors.Is(err, noiseerr.ErrInvalidCase) {
		t.Fatalf("err = %v, want ErrInvalidCase", err)
	}
	if srv.calls != 1 {
		t.Fatalf("calls = %d, want no retry of a 400", srv.calls)
	}
}

// TestDeadlineSummary: a stream the server cut short on its request
// deadline surfaces as an ErrDeadline-classified failure with the
// partial results attached.
func TestDeadlineSummary(t *testing.T) {
	_, c := newScripted(t,
		scriptStep{body: okRecord("a") + summaryLine(2, 1, true)},
	)
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, nil)
	if err == nil || !errors.Is(err, noiseerr.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if len(res.Reports) != 1 || !res.Summary.Deadline {
		t.Fatalf("partial result = %+v", res)
	}
}

// TestGiveUp: persistent shedding exhausts MaxAttempts and reports the
// last failure.
func TestGiveUp(t *testing.T) {
	srv, c := newScripted(t,
		scriptStep{status: http.StatusServiceUnavailable, body: "full", retryAfter: "0"},
		scriptStep{status: http.StatusServiceUnavailable, body: "full", retryAfter: "0"},
		scriptStep{status: http.StatusServiceUnavailable, body: "full", retryAfter: "0"},
		scriptStep{status: http.StatusServiceUnavailable, body: "full", retryAfter: "0"},
	)
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, nil)
	if err == nil || !strings.Contains(err.Error(), "giving up after 4 attempts") {
		t.Fatalf("err = %v", err)
	}
	if srv.calls != 4 || res.Attempts != 4 {
		t.Fatalf("calls = %d attempts = %d, want 4/4", srv.calls, res.Attempts)
	}
}

// TestContextCancelStopsRetries: the caller's context aborts the retry
// loop immediately instead of sleeping through the backoff schedule.
func TestContextCancelStopsRetries(t *testing.T) {
	pinJitter(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "full", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	c, err := New(Config{
		BaseURL:     ts.URL,
		BaseBackoff: time.Hour, // a retry sleep would hang the test
		MaxBackoff:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Analyze(ctx, []byte(`{}`), Options{}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestOptionsQuery checks the option → query-string rendering.
func TestOptionsQuery(t *testing.T) {
	on := true
	q := Options{
		Hold:       "thevenin",
		Align:      "prechar",
		Rescue:     &on,
		NetTimeout: 5 * time.Second,
		Timeout:    10 * time.Minute,
		RequestID:  "batch-1",
	}.query()
	for _, want := range []string{"hold=thevenin", "align=prechar", "rescue=true", "net_timeout=5s", "timeout=10m0s", "request_id=batch-1"} {
		if !strings.Contains(q, want) {
			t.Fatalf("query %q missing %q", q, want)
		}
	}
	if got := (Options{}).query(); got != "" {
		t.Fatalf("zero options render %q, want empty", got)
	}
}

// TestColblobWireRoundTrip: a Wire:"colblob" client negotiates the
// binary stream (Accept header out, Content-Type dispatch in) and folds
// it into the same Result the NDJSON wire produces.
func TestColblobWireRoundTrip(t *testing.T) {
	body := colblobBody(t, `{"nets":2,"ok":2}`, "a", "b")
	srv, c := newScriptedWire(t, "colblob",
		scriptStep{body: body, contentType: clarinet.ContentTypeColblob},
	)
	var streamed []string
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, func(rec clarinet.JournalRecord) {
		streamed = append(streamed, rec.Net)
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.calls != 1 {
		t.Fatalf("calls = %d, want 1", srv.calls)
	}
	if len(res.Reports) != 2 || res.Summary.Nets != 2 || res.Summary.OK != 2 {
		t.Fatalf("result = %+v", res)
	}
	if strings.Join(streamed, ",") != "a,b" {
		t.Fatalf("streamed = %v", streamed)
	}
	for _, rep := range res.Reports {
		if rep.Res == nil || rep.Res.DelayNoise != 1e-12 {
			t.Fatalf("report %s = %+v, want DelayNoise 1e-12", rep.Name, rep)
		}
	}
}

// TestColblobAcceptHeader: the colblob client advertises the binary
// wire; the plain client does not.
func TestColblobAcceptHeader(t *testing.T) {
	pinJitter(t)
	var accepts []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		accepts = append(accepts, r.Header.Get("Accept"))
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(okRecord("a") + summaryLine(1, 1, false)))
	}))
	t.Cleanup(ts.Close)
	for _, wire := range []string{"", "colblob"} {
		c, err := New(Config{BaseURL: ts.URL, Wire: wire, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Contains(accepts[0], clarinet.ContentTypeColblob) {
		t.Fatalf("default client sent Accept %q", accepts[0])
	}
	if !strings.Contains(accepts[1], clarinet.ContentTypeColblob) {
		t.Fatalf("colblob client sent Accept %q", accepts[1])
	}
}

// TestColblobFallsBackToNDJSON: a colblob-capable client against a
// server that answers NDJSON decodes by response Content-Type — wire
// negotiation degrades, never breaks.
func TestColblobFallsBackToNDJSON(t *testing.T) {
	_, c := newScriptedWire(t, "colblob",
		scriptStep{body: okRecord("a") + summaryLine(1, 1, false)},
	)
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 1 || res.Summary.OK != 1 {
		t.Fatalf("result = %+v", res)
	}
}

// TestColblobMidStreamRetry: a binary stream cut before its summary is
// retried like the NDJSON one, and the replayed nets deduplicate.
func TestColblobMidStreamRetry(t *testing.T) {
	srv, c := newScriptedWire(t, "colblob",
		scriptStep{body: colblobBody(t, "", "a"), contentType: clarinet.ContentTypeColblob},
		scriptStep{body: colblobBody(t, `{"nets":2,"ok":2}`, "a", "b"), contentType: clarinet.ContentTypeColblob},
	)
	var streamed []string
	res, err := c.Analyze(context.Background(), []byte(`{}`), Options{}, func(rec clarinet.JournalRecord) {
		streamed = append(streamed, rec.Net)
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.calls != 2 || res.Attempts != 2 {
		t.Fatalf("calls = %d attempts = %d, want 2/2", srv.calls, res.Attempts)
	}
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %+v", res.Reports)
	}
	if strings.Join(streamed, ",") != "a,b" {
		t.Fatalf("streamed = %v (replayed net delivered twice?)", streamed)
	}
}
