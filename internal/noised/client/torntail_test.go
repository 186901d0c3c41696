package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/clarinet"
	"repro/internal/colblob"
	"repro/internal/faultinject"
)

// tornNets is enough record frames (~100 bytes each) to guarantee the
// faultinject cutoff (64..1088 bytes) lands strictly inside the body.
const tornNets = 24

// colblobHandler streams a full colblob analyze response in small
// flushed writes, so a network-seam fault can cut it mid-frame.
func colblobHandler(t *testing.T) http.Handler {
	t.Helper()
	names := make([]string, tornNets)
	for i := range names {
		names[i] = fmt.Sprintf("net%02d", i)
	}
	body := []byte(colblobBody(t, fmt.Sprintf(`{"nets":%d,"ok":%d}`, tornNets, tornNets), names...))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", clarinet.ContentTypeColblob)
		w.WriteHeader(http.StatusOK)
		f, _ := w.(http.Flusher)
		for rest := body; len(rest) > 0; {
			n := 32
			if n > len(rest) {
				n = len(rest)
			}
			if _, err := w.Write(rest[:n]); err != nil {
				return
			}
			rest = rest[n:]
			if f != nil {
				f.Flush()
			}
		}
	})
}

// TestColblobTornTailOverHTTP: a replica dying mid-frame tears the
// chunked response; the frame reader must classify the tail as ErrTorn
// (not yield a corrupt record, not report clean EOF).
func TestColblobTornTailOverHTTP(t *testing.T) {
	plan := faultinject.New(11, faultinject.Config{HealAfter: 1})
	plan.Assign("torn", faultinject.KindTruncatedFrame)
	ts := httptest.NewServer(plan.WrapHandler(colblobHandler(t)))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"?request_id=torn", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fr := colblob.NewFrameReader(resp.Body)
	decode := clarinet.RecordCodec.NewDecoder()
	frames := 0
	for {
		kind, payload, err := fr.Next()
		if err == io.EOF {
			t.Fatalf("clean EOF after %d frames; a torn tail must not look clean", frames)
		}
		if err != nil {
			if !errors.Is(err, colblob.ErrTorn) {
				t.Fatalf("tail error = %v, want ErrTorn", err)
			}
			break
		}
		if kind == colblob.FrameRecord {
			if _, err := decode(payload); err != nil {
				t.Fatalf("intact frame %d failed to decode: %v", frames, err)
			}
		}
		frames++
	}
	if frames >= tornNets+1 {
		t.Fatalf("read %d frames; the cut should have torn the stream earlier", frames)
	}
}

// TestClientHealsTornColblobStream: the retrying client treats the torn
// tail as an interrupted stream, retries, and merges the replayed
// records into one complete result.
func TestClientHealsTornColblobStream(t *testing.T) {
	pinJitter(t)
	plan := faultinject.New(11, faultinject.Config{HealAfter: 1})
	plan.Assign("torn", faultinject.KindTruncatedFrame)
	ts := httptest.NewServer(plan.WrapHandler(colblobHandler(t)))
	defer ts.Close()

	c, err := New(Config{BaseURL: ts.URL, Wire: "colblob", BaseBackoff: 1, MaxBackoff: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Analyze(context.Background(), []byte("{}"), Options{RequestID: "torn"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (torn, then healed)", res.Attempts)
	}
	if len(res.Reports) != tornNets {
		t.Fatalf("reports = %d, want %d", len(res.Reports), tornNets)
	}
	if res.Summary.OK != tornNets {
		t.Fatalf("summary = %+v", res.Summary)
	}
}
