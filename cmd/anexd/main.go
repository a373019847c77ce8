// Command anexd serves explanations over HTTP/JSON: a long-lived process
// that keeps the shared neighbourhood plane and per-dataset score memos
// warm across requests, so repeated explanations of a registered dataset
// cost cache lookups instead of detector work.
//
// Usage:
//
//	anexd [-addr :8347] [-data-dir DIR] [-max-inflight N] [-rate R]
//	      [-burst B] [-plane-mb 256] [-cache-mb 256] [-workers N]
//	      [-grace 15s] [-failpoints SPEC]
//
// Endpoints:
//
//	POST   /v1/datasets         register a CSV payload under a name
//	DELETE /v1/datasets/{name}  forget a dataset (durable tombstone first)
//	POST   /v1/explain          explain points (same knobs and output as anexplain)
//	GET    /v1/stats            cache reuse, admission and latency counters
//	GET    /healthz             liveness + degraded flag
//
// With -data-dir (or ANEXD_DATA_DIR) every registration and forget is
// written to a checksummed write-ahead log before it is acknowledged, and
// a restart — graceful or kill -9 — recovers the registry from disk:
// every acked dataset explains byte-identically afterwards. If a durable
// write ever fails, the store fail-stops and the server degrades to
// read-only: registered tenants keep explaining, writes answer 503 with
// Retry-After until an operator restarts the process.
//
// -failpoints (or ANEXD_FAILPOINTS) arms deterministic fault injection
// (see internal/failpoint) for crash drills; never set it in production.
//
// SIGINT/SIGTERM drain in-flight requests and exit 0 (a clean shutdown);
// requests still running after -grace are hard-cancelled and the exit is
// non-zero. Saturation (past -max-inflight or -rate) answers 429 with a
// Retry-After header instead of queueing.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anex/internal/clix"
	"anex/internal/durable"
	"anex/internal/failpoint"
	"anex/internal/server"
)

// HTTP server timeouts. Headers are bounded here and request bodies per
// request by the server package, so a slow or stalled client cannot hold a
// connection (and its goroutine) open forever. There is deliberately no
// ReadTimeout or WriteTimeout: both would stay armed while the handler
// runs. Explanation time is bounded per request by timeout_ms and the
// admission gate, not by the transport.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address (host:port; :0 picks a free port)")
		dataDir     = flag.String("data-dir", clix.EnvString("ANEXD_DATA_DIR", ""), "durable dataset store directory; empty = in-memory only (env ANEXD_DATA_DIR)")
		failpoints  = flag.String("failpoints", clix.EnvString("ANEXD_FAILPOINTS", ""), "fault-injection spec site=action[@hit][;...] for crash drills (env ANEXD_FAILPOINTS)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently served explanation requests (0 = the worker budget)")
		rate        = flag.Float64("rate", 0, "admitted POST requests per second, token bucket (0 = unlimited)")
		burst       = flag.Int("burst", 0, "token-bucket capacity (0 = ceil(rate))")
		planeMB     = flag.Int("plane-mb", 0, "byte budget (MiB) of the shared neighbourhood plane (0 = default 256)")
		cacheMB     = flag.Int("cache-mb", 0, "byte budget (MiB) of each dataset's per-detector score memo (0 = default 256)")
		workers     = flag.Int("workers", 0, "scoring workers per request (0 = GOMAXPROCS); results are identical at any count")
		grace       = flag.Duration("grace", 15*time.Second, "shutdown drain deadline before in-flight requests are hard-cancelled")
	)
	flag.Parse()

	// Unlike the one-shot CLIs (internal/clix: interrupt → exit 130), a
	// signal to the daemon means "drain and exit cleanly".
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := run(ctx, options{
		addr:        *addr,
		dataDir:     *dataDir,
		failpoints:  *failpoints,
		maxInflight: *maxInflight,
		rate:        *rate,
		burst:       *burst,
		planeMB:     *planeMB,
		cacheMB:     *cacheMB,
		workers:     *workers,
		grace:       *grace,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "anexd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr        string
	dataDir     string
	failpoints  string
	maxInflight int
	rate        float64
	burst       int
	planeMB     int
	cacheMB     int
	workers     int
	grace       time.Duration
	// ready, when non-nil, receives the bound address once the listener is
	// up (the test seam for -addr :0).
	ready chan<- string
}

func run(ctx context.Context, opts options) error {
	if opts.failpoints != "" {
		if err := failpoint.Enable(opts.failpoints); err != nil {
			return err
		}
		defer failpoint.Disable()
		fmt.Fprintf(os.Stderr, "anexd: FAULT INJECTION ARMED: %s\n", opts.failpoints)
	}
	eng := server.NewEngine(server.EngineConfig{
		Workers:    opts.workers,
		CacheBytes: int64(opts.cacheMB) << 20,
		PlaneBytes: int64(opts.planeMB) << 20,
	})
	var store *durable.Store
	if opts.dataDir != "" {
		st, recovered, err := durable.Open(opts.dataDir)
		if err != nil {
			return fmt.Errorf("data dir %s: %w", opts.dataDir, err)
		}
		defer st.Close()
		store = st
		for _, rec := range recovered {
			if _, err := eng.RegisterCSV(rec.Name, rec.CSV, rec.Header); err != nil {
				return fmt.Errorf("recover dataset %q: %w", rec.Name, err)
			}
		}
		fmt.Fprintf(os.Stderr, "anexd: recovered %d datasets from %s\n", len(recovered), opts.dataDir)
	}
	srv := server.New(eng, server.Config{
		MaxInflight: opts.maxInflight,
		Rate:        opts.rate,
		Burst:       opts.burst,
		Durable:     store,
		OnDegrade: func(err error) {
			fmt.Fprintf(os.Stderr, "anexd: DEGRADED (read-only until restart): %v\n", err)
		},
	})

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "anexd: listening on %s\n", ln.Addr())
	if opts.ready != nil {
		opts.ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight requests finish, exit
	// clean. Past the grace deadline the remaining connections are
	// hard-closed and the exit reports the incomplete drain.
	fmt.Fprintln(os.Stderr, "anexd: draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.grace)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		httpSrv.Close()
		return fmt.Errorf("drain incomplete after %s: %w", opts.grace, err)
	}
	return nil
}
