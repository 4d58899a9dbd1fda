// Command ioatd serves the benchmark suite as a long-running daemon:
// sweep jobs go in over HTTP, run on a bounded worker pool behind an
// admission-controlled queue, and come back as NDJSON result streams or
// polled status documents — every table byte-identical to what
// ioatbench prints for the same configuration. A shared, bounded point
// cache makes repeated configurations orders of magnitude faster than a
// cold run; when full, it evicts the point cheapest to simulate again.
//
// Typical session:
//
//	ioatd -addr :8080 -workers 4 &
//	curl -s localhost:8080/v1/runners | jq .
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"runners":["fig6"],"seed":1,"scale":0.1}' | jq .
//	curl -s localhost:8080/v1/jobs/job-1 | jq -r .results[0].table
//	curl -sN -X POST 'localhost:8080/v1/jobs?stream=1' \
//	    -d '{"runners":["fig3a","fig6"]}'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM starts a graceful drain: admission stops, queued jobs
// are cancelled, in-flight jobs get -drain to finish, then their
// contexts are cancelled and the daemon exits.
//
// Every connection is bounded: a client has readHeaderTimeout to send
// its request headers, and a keep-alive connection is closed after
// idleTimeout without a request. There is no read or write timeout,
// because an attached submission (?stream=1) and GET
// /v1/jobs/{id}/stream keep one response open for a whole job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ioatsim/internal/serve"
)

// Connection bounds. They are constants, not flags: a client sends its
// headers at once, and one idle for two minutes can reconnect.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds ioatd's HTTP server with the given connection
// bounds; main passes the constants above, tests shorter ones.
func newHTTPServer(addr string, h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

func main() {
	var (
		addr    = flag.String("addr", ":8080", "HTTP listen address")
		workers = flag.Int("workers", 2, "concurrently running jobs")
		queueN  = flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
		maxSc   = flag.Float64("max-scale", 1.0, "largest accepted job scale")
		retain  = flag.Int("retention", 256, "terminal jobs kept queryable")
		cacheD  = flag.String("pointcache", "", "directory for the persistent point cache (empty: in-process only)")
		cacheN  = flag.Int("cache-entries", 4096, "point cache entry bound (0: unbounded)")
		cacheB  = flag.Int64("cache-bytes", 256<<20, "point cache byte bound (0: unbounded)")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight jobs")
	)
	flag.Parse()

	srv := serve.New(serve.Options{
		QueueDepth:   *queueN,
		Workers:      *workers,
		MaxScale:     *maxSc,
		Retention:    *retain,
		CacheDir:     *cacheD,
		CacheEntries: *cacheN,
		CacheBytes:   *cacheB,
	})
	srv.Start()

	httpSrv := newHTTPServer(*addr, srv.Handler(), readHeaderTimeout, idleTimeout)

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "ioatd: listening on %s (%d workers, queue %d)\n",
		*addr, *workers, *queueN)

	select {
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "ioatd: draining (deadline %s)\n", *drain)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "ioatd: %v\n", err)
		os.Exit(1)
	}

	// Stop accepting connections first, then drain the job pool. The
	// HTTP shutdown shares the drain deadline so attached streams can
	// finish alongside their jobs.
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "ioatd: drain deadline exceeded, in-flight jobs aborted\n")
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "ioatd: http shutdown: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "ioatd: bye")
}
