// Command butterflyd is the long-running query daemon over the
// reproduction's engines: an HTTP/JSON API serving bisection widths,
// §4.3 expansion tables, Monte-Carlo routing statistics and the full
// E1–E17 report, with an LRU result cache, coalescing of concurrent
// identical queries, per-request deadlines, and explicit overload
// control (429/503).
//
// Responses reuse the run-manifest JSON schema of the CLI commands'
// -json flag (schema "repro/run-manifest", version 1), so a served
// answer and a paperrepro artifact are interchangeable downstream.
//
// Endpoints:
//
//	/v1/bisection?network=bn&n=1024[&exact-nodes=32][&timeout=5s]
//	/v1/expansion?kind=ee_wn&n=256[&d=1,2,3][&exact-nodes=32][&kmax=8]
//	/v1/routing?n=64[&kind=random|permutation|hotspot|bitreversal]
//	           [&trials=25][&seed=1][&drop=0,0.05,0.1][&dead=0.02]
//	           [&retransmits=4][&switching=sf|ct]
//	/v1/report[?quick=true][&seed=1]
//	/healthz          200 while serving, 503 while draining
//	/debug/metrics    live metrics registry (cache, latency, solver)
//	/debug/statusz    uptime, build/config, occupancy, latency quantiles
//
// Every query response carries an X-Request-ID header (the client's own,
// sanitized, or a generated one); the same ID labels the request's trace
// spans and its -access-log line, so one slow request can be chased
// across client, log and trace. With -access-log PATH the daemon appends
// one JSON line per query request (id, endpoint, status, outcome, cache
// source, latency µs, bytes) to PATH; "-" means stderr.
//
// The /v1/routing fault parameters drive the seeded lossy-link model:
// drop is the per-transmission loss probability (a comma-separated list
// sweeps a degradation curve, one row per rate), dead is the fraction of
// links killed for whole trials, retransmits bounds per-packet retries
// (0 = unbounded) and switching picks store-and-forward (sf) or
// cut-through (ct). A query whose every trial exhausts the 64·N step
// limit answers 422 instead of looping.
//
// SIGINT/SIGTERM drain gracefully: in-flight solves are signalled to
// wind down, their handlers return best-so-far results marked non-exact
// (complete=false in the response's serve table), and the process exits
// once every response is written or -drain expires.
//
// With -store DIR the daemon keeps a persistent result store under DIR:
// every complete solve is appended to it before its response is written,
// and cache misses fall back to it (X-Cache: store-hit) — so a restarted
// daemon, even one killed without draining, answers everything the
// previous process ever solved from disk, no solver invoked, routing
// queries included. The drain syncs the store.
//
// With -precompute GRID the daemon runs as a batch filler instead of a
// server: it solves every missing point of the declared grid into the
// store, -inflight points at a time, and exits. GRID is a comma-separated
// list of network:loglo-loghi[:exact-nodes] ranges over log2(n), e.g.
// "bn:3-12,wn:2-8,ccc:3-8".
//
// Cluster mode shards the daemon across peers. -peers lists every
// daemon's HTTP address, -addr among them, identically on all nodes. Each
// node consistent-hashes the canonical request key over that ring and
// forwards a query it does not own to the owner's own /v1/* endpoint,
// carrying the request ID; the answer is relayed verbatim with
// X-Cluster-Peer naming the owner. A peer that stops answering is
// benched (its keys reassign to the survivors) and queries fall back to
// local solving, so the cluster degrades instead of failing.
//
// Usage:
//
//	butterflyd [-addr localhost:8080] [-inflight 0] [-queue 0]
//	           [-queue-wait 2s] [-default-timeout 10s] [-max-timeout 60s]
//	           [-cache 256] [-cache-bytes 67108864] [-drain 30s]
//	           [-store dir] [-precompute grid] [-peers a,b,c]
//	           [-trace path] [-access-log path] [-pprof addr]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// splitPeers parses the -peers list, dropping empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	inflight := flag.Int("inflight", 0, "max concurrent solves, -precompute points included (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a solve slot before 429 (0 = 4×inflight)")
	queueWait := flag.Duration("queue-wait", 2*time.Second, "max time a queued request waits for a slot before 503")
	defaultTimeout := flag.Duration("default-timeout", 10*time.Second, "solve budget when the request names none")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on client-requested solve budgets")
	cacheEntries := flag.Int("cache", 256, "result-cache entries (LRU)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result-cache byte budget (evicts past either bound)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests")
	storeDir := flag.String("store", "", "persistent result store directory: every complete solve is written through to it (warm start, precompute)")
	precompute := flag.String("precompute", "", "batch-fill the store for this grid (network:loglo-loghi[:exact-nodes],...) and exit")
	tracePath := flag.String("trace", "", "write request and solver trace events (JSONL) to this path")
	accessLogPath := flag.String("access-log", "", "append one JSON line per query request to this path (\"-\" = stderr)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof + /debug/metrics on this extra address")
	peers := flag.String("peers", "", "comma-separated HTTP addresses of every peer, -addr included; forward queries to their owners")
	flag.Parse()

	peerList := splitPeers(*peers)
	var peersErr error
	if len(peerList) > 0 && !slices.Contains(peerList, *addr) {
		peersErr = fmt.Errorf("-peers must list this node's -addr %q", *addr)
	}
	// The grid is parsed before the store opens, so a rejected -precompute
	// leaves no store directory behind.
	var grid []serve.GridPoint
	var storeErr, gridErr error
	if *precompute != "" {
		if *storeDir == "" {
			storeErr = errors.New("-precompute requires -store")
		}
		grid, gridErr = serve.ParseGrid(*precompute)
	}
	cli.Validate(
		cli.NonNegative("inflight", *inflight),
		cli.NonNegative("queue", *queue),
		cli.Positive("cache", *cacheEntries),
		peersErr,
		storeErr,
		gridErr,
	)

	var tracer *obs.Tracer
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", err)
			os.Exit(1)
		}
		traceFile = f
		tracer = obs.NewTracer(f)
	}

	// The access log appends (a restarted daemon keeps the history) and
	// tolerates "-" for stderr, handy under systemd-style capture.
	var accessLog io.Writer
	var accessFile *os.File
	if *accessLogPath == "-" {
		accessLog = os.Stderr
	} else if *accessLogPath != "" {
		f, err := os.OpenFile(*accessLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -access-log: %v\n", err)
			os.Exit(1)
		}
		accessFile = f
		accessLog = f
	}

	cli.StartPprof(*pprofAddr)

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{Trace: tracer})
		if err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -store: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "butterflyd: store %s holds %d results\n", *storeDir, st.Len())
	}

	// Cluster wiring: the router forwards keys this node does not own to
	// their owners' HTTP endpoints; forwarded-in queries arrive on -addr
	// like any other request.
	var peerRouter serve.PeerRouter
	if len(peerList) > 0 {
		peerRouter = cluster.NewRouter(*addr, peerList, nil, *maxTimeout)
	}

	srv := serve.New(serve.Config{
		MaxInflight:     *inflight,
		MaxQueue:        *queue,
		QueueWait:       *queueWait,
		DefaultDeadline: *defaultTimeout,
		MaxDeadline:     *maxTimeout,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		Store:           st,
		Trace:           tracer,
		AccessLog:       accessLog,
		Peers:           peerRouter,
	})

	if *precompute != "" {
		runPrecompute(srv, st, grid, traceFile, tracer)
		return
	}

	// Bind synchronously so an occupied port is an immediate exit-1, not
	// a daemon that looks alive and serves nothing.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "butterflyd: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "butterflyd: serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal now kills the process the default way

	fmt.Fprintf(os.Stderr, "butterflyd: draining (up to %s)\n", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: shutdown: %v\n", err)
		os.Exit(1)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "butterflyd: serve: %v\n", err)
		os.Exit(1)
	}
	if st != nil {
		// Every complete solve is already in the store; Shutdown synced it.
		n := st.Len()
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: store: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "butterflyd: store flushed, %d results on disk\n", n)
	}
	if traceFile != nil {
		if err := tracer.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", err)
		}
		if err := traceFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", err)
		}
	}
	if err := srv.AccessLogErr(); err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: -access-log: %v\n", err)
	}
	if accessFile != nil {
		if err := accessFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -access-log: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "butterflyd: drained cleanly")
}

// runPrecompute is the -precompute batch mode: solve every missing grid
// point into the store, -inflight points at a time, report, exit. A
// SIGINT/SIGTERM stops feeding new points and lets in-flight solves
// finish; a second signal kills the process the default way.
func runPrecompute(srv *serve.Server, st *store.Store, grid []serve.GridPoint, traceFile *os.File, tracer *obs.Tracer) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	start := time.Now()
	fmt.Fprintf(os.Stderr, "butterflyd: precomputing %d grid points\n", len(grid))
	res, err := srv.Precompute(ctx, grid, func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "butterflyd: "+format+"\n", args...)
	})
	fmt.Fprintf(os.Stderr, "butterflyd: precompute done in %s: %d solved, %d skipped, %d failed; store holds %d results\n",
		time.Since(start).Round(time.Millisecond), res.Solved, res.Skipped, res.Failed, st.Len())
	if cerr := st.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: store: %v\n", cerr)
		os.Exit(1)
	}
	if traceFile != nil {
		if terr := tracer.Err(); terr != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", terr)
		}
		if terr := traceFile.Close(); terr != nil {
			fmt.Fprintf(os.Stderr, "butterflyd: -trace: %v\n", terr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "butterflyd: %v\n", err)
		os.Exit(1)
	}
}
