// Command noised is the resident noise-analysis service: a long-running
// HTTP daemon that owns one warm engine session — alignment tables,
// driver characterizations and holding resistances — and amortizes it
// across every request, where the one-shot CLI tools rebuild that state
// per invocation.
//
// Usage:
//
//	noised [-addr 127.0.0.1:8463] [-addr-file path]
//	       [-hold thevenin|transient] [-align exhaustive|input|prechar]
//	       [-workers N] [-rescue] [-net-timeout 5s]
//	       [-max-inflight N] [-max-queue N] [-max-nets N]
//	       [-request-timeout 15m] [-drain-timeout 60s] [-retry-after 1s]
//	       [-heartbeat 10s]
//	       [-journal-dir dir] [-journal-format binary|jsonl] [-warm-store dir]
//	       [-char-cache-res R] [-prechar-grid N]
//
// The API:
//
//	POST /v1/analyze  streams per-net results back as NDJSON (see
//	                  internal/noised and cmd/noisectl)
//	GET  /healthz     liveness, build identity, load snapshot
//	GET  /readyz      200 while accepting, 503 once draining
//	GET  /metrics     the engine metrics registry as JSON
//
// -addr :0 binds an ephemeral port; -addr-file writes the bound address
// to a file so scripts can find it. On the first SIGINT/SIGTERM the
// daemon drains: /readyz flips to 503, new analyses are refused, and
// in-flight streams finish within -drain-timeout. A second signal
// forces immediate exit.
//
// -warm-store points at a content-addressed store of session state
// (alignment tables, driver characterizations, PRIMA models): at
// startup the daemon loads the entry matching its exact configuration
// (store.hits / store.misses appear under /metrics) and on drain it
// saves the state it accumulated, so the next process starts warm. A
// store survives technology or library changes safely — mismatched
// state lives under a different key and simply misses.
package main

import (
	"flag"
	"log"
	"net"
	"os"

	"repro/internal/clarinet"
	"repro/internal/cliutil"
	"repro/internal/journal"
	"repro/internal/noised"
	"repro/internal/resilience"
)

func main() {
	cliutil.Init("noised")
	addr := flag.String("addr", "127.0.0.1:8463", "listen address (:0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	holdFlag := flag.String("hold", "transient", "default victim holding model: thevenin | transient")
	alignFlag := flag.String("align", "prechar", "default alignment method: exhaustive | input | prechar")
	workers := flag.Int("workers", 0, "per-request analysis workers (0 = one per core)")
	rescue := flag.Bool("rescue", true, "arm the convergence rescue ladder by default")
	netTimeout := flag.Duration("net-timeout", 0, "default per-net analysis budget (0 = no limit)")
	maxInflight := flag.Int("max-inflight", noised.DefaultMaxInflight, "requests analyzed concurrently")
	maxQueue := flag.Int("max-queue", noised.DefaultMaxQueue, "admitted requests allowed to wait for a slot")
	maxNets := flag.Int("max-nets", noised.DefaultMaxNets, "per-request net-count limit")
	requestTimeout := flag.Duration("request-timeout", noised.DefaultMaxRequestTimeout, "per-request deadline cap (negative disables)")
	drainTimeout := flag.Duration("drain-timeout", noised.DefaultDrainTimeout, "graceful drain budget after the first signal")
	retryAfter := flag.Duration("retry-after", noised.DefaultRetryAfter, "backoff hint on 503 responses")
	heartbeat := flag.Duration("heartbeat", noised.DefaultHeartbeat, "keepalive interval on idle analyze streams (negative disables)")
	journalDir := flag.String("journal-dir", "", "journal requests carrying a request_id under this directory (enables resume)")
	journalFormat := flag.String("journal-format", "binary", "encoding for new server-side journals: binary (compact colblob frames) | jsonl (debug view)")
	warmStore := flag.String("warm-store", "", "content-addressed warm-start store directory: load session state at startup, save it on drain")
	charRes := flag.Float64("char-cache-res", 0, "driver characterization cache bucket resolution (0 = default, negative disables)")
	precharGrid := flag.Int("prechar-grid", 0, "alignment-table search grid (0 = default)")
	flag.Parse()
	cliutil.ExitIfVersion()

	hold, err := clarinet.ParseHold(*holdFlag)
	if err != nil {
		cliutil.Usagef("unknown hold model %q", *holdFlag)
	}
	alignMethod, err := clarinet.ParseAlign(*alignFlag)
	if err != nil {
		cliutil.Usagef("unknown alignment method %q", *alignFlag)
	}
	format, err := journal.FormatByName(*journalFormat)
	if err != nil {
		cliutil.Usagef("%v", err)
	}
	var policy resilience.Policy
	if *rescue {
		policy = resilience.DefaultPolicy()
	}
	if *journalDir != "" {
		if err := os.MkdirAll(*journalDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	srv, err := noised.New(noised.Config{
		Hold:              hold,
		Align:             alignMethod,
		UseConfigAlign:    true,
		Resilience:        policy,
		NetTimeout:        *netTimeout,
		Workers:           *workers,
		PrecharGrid:       *precharGrid,
		CharCacheRes:      *charRes,
		MaxInflight:       *maxInflight,
		MaxQueue:          *maxQueue,
		MaxNets:           *maxNets,
		MaxRequestTimeout: *requestTimeout,
		DrainTimeout:      *drainTimeout,
		RetryAfter:        *retryAfter,
		Heartbeat:         *heartbeat,
		JournalDir:        *journalDir,
		JournalFormat:     format,
		WarmStoreDir:      *warmStore,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s (%s hold, %s alignment, %d inflight / %d queued)",
		ln.Addr(), *holdFlag, *alignFlag, *maxInflight, *maxQueue)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	ctx, cancel := cliutil.Context(0)
	defer cancel()
	if err := srv.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}
