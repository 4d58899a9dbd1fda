// Package serve turns the benchmark suite into a long-running service:
// an HTTP daemon (cmd/ioatd) that accepts sweep jobs over the same
// configuration surface as the CLI, runs them on a bounded worker pool
// behind an admission-controlled FIFO queue, streams per-experiment
// results as NDJSON while a job is in flight, and shares one bounded
// point-result cache across every job so repeated configurations are
// served from memory instead of re-simulated. When full, the cache
// evicts the point cheapest to simulate again (sweep.PointCache).
//
// The serving pipeline is queue -> pool -> cache:
//
//   - admission: POST /v1/jobs is non-blocking; a full queue answers
//     429 with a Retry-After estimated from recent job latency, so
//     overload sheds load at the door instead of building an unbounded
//     backlog (the paper's server-side story, applied to the service
//     that reproduces it);
//   - execution: a fixed pool of workers runs jobs FIFO, each job's
//     experiments sequential, each experiment's points parallel up to
//     the job's own parallelism knob; every job carries a context, so
//     DELETE /v1/jobs/{id}, an attached client's disconnect, and server
//     shutdown all abort a sweep between points without leaking
//     workers;
//   - memoization: results are keyed by the same content-addressed
//     point keys as the CLI, so any job at a configuration the server
//     has seen — from any client — returns table-identical bytes
//     without simulating.
//
// Every result a job reports is byte-identical to what the CLI prints
// for the same configuration; the golden parity tests pin that.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/metrics"
	"ioatsim/internal/sim"
	"ioatsim/internal/sweep"
)

// ErrQueueFull is returned when admission control rejects a job; the
// HTTP layer maps it to 429 Too Many Requests with a Retry-After hint.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrDraining is returned once shutdown has begun; the HTTP layer maps
// it to 503 Service Unavailable.
var ErrDraining = errors.New("serve: server is draining")

// Options configures a Server. The zero value is usable: a queue of 64
// jobs, two workers and an unbounded, memo-only point cache.
type Options struct {
	// QueueDepth bounds the admission queue (jobs waiting for a
	// worker); <= 0 means 64. A full queue rejects with 429.
	QueueDepth int
	// Workers is the number of concurrently running jobs; <= 0 means 2.
	Workers int
	// MaxScale rejects jobs whose Scale exceeds it; <= 0 means 1.0
	// (paper-sized). Protects the service from arbitrarily large
	// simulations.
	MaxScale float64
	// Retention bounds how many terminal jobs stay queryable; <= 0
	// means 256. The oldest are forgotten first.
	Retention int
	// CacheDir persists point results in its subdirectory for this
	// executable, so a rebuilt daemon starts cold ("" = in-process
	// only; see sweep.NewPointCache).
	CacheDir string
	// CacheEntries / CacheBytes bound the in-process point memo
	// (0 = that dimension unbounded).
	CacheEntries int
	CacheBytes   int64
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.MaxScale <= 0 {
		o.MaxScale = 1.0
	}
	if o.Retention <= 0 {
		o.Retention = 256
	}
	return o
}

// Server owns the job registry, the admission queue, the worker pool
// and the shared point cache. Create with New, start with Start, stop
// with Shutdown.
type Server struct {
	opts  Options
	cache *sweep.PointCache
	// queue is the admission FIFO between Submit and the workers.
	// Admission is strictly first-come-first-served, with no priority
	// tier: fairness under overload is the 429 itself, which pushes
	// retry scheduling to clients. Submit sends and Shutdown closes it
	// under mu, with draining, so no send can follow the close.
	queue chan *Job

	baseCtx   context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup
	draining  atomic.Bool // set once, under mu, by Shutdown

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // creation order, for retention
	nextID   uint64
	started  time.Time
	startEv  uint64
	inflight atomic.Int64

	accepted atomic.Uint64
	rejected atomic.Uint64
	finished [3]atomic.Uint64 // done, failed, canceled

	// latency holds finished jobs' wall-clock durations in seconds,
	// under mu.
	latency *metrics.Histogram

	// run executes one job; tests replace it to exercise the queue and
	// lifecycle without simulating.
	run func(*Job)
}

// New builds a server (not yet running; call Start).
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:  opts,
		cache: sweep.NewPointCache(opts.CacheDir).Bound(opts.CacheEntries, opts.CacheBytes),
		queue: make(chan *Job, opts.QueueDepth),
		jobs:  make(map[string]*Job),
		latency: metrics.NewHistogram(
			0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300),
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	s.run = s.runJob
	return s
}

// Cache exposes the shared point cache (tests and the daemon's startup
// log read its stats).
func (s *Server) Cache() *sweep.PointCache { return s.cache }

// metricsDoc is the /metrics document: serving state, job outcome
// counters, latency, cache effectiveness and engine throughput.
type metricsDoc struct {
	UptimeS        float64    `json:"uptime_s"`
	QueueDepth     int        `json:"queue_depth"`
	InflightJobs   int64      `json:"inflight_jobs"`
	JobsAccepted   uint64     `json:"jobs_accepted"`
	JobsRejected   uint64     `json:"jobs_rejected"`
	JobsDone       uint64     `json:"jobs_done"`
	JobsFailed     uint64     `json:"jobs_failed"`
	JobsCanceled   uint64     `json:"jobs_canceled"`
	JobLatencyS    latencyDoc `json:"job_latency_s"`
	CacheHits      uint64     `json:"cache_hits"`
	CacheMisses    uint64     `json:"cache_misses"`
	CacheHitRatio  float64    `json:"cache_hit_ratio"`
	CacheSavedS    float64    `json:"cache_saved_s"`
	CacheEvictions uint64     `json:"cache_evictions"`
	CacheEntries   int        `json:"cache_entries"`
	CacheBytes     int64      `json:"cache_bytes"`
	SimEventsTotal uint64     `json:"sim_events_total"`
	SimEventsPerS  float64    `json:"sim_events_per_s"`
}

// latencyDoc summarizes the job latency histogram.
type latencyDoc struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// readMetrics reads the server's counters into a /metrics document.
func (s *Server) readMetrics() metricsDoc {
	hits, misses := s.cache.Stats()
	d := metricsDoc{
		QueueDepth:     len(s.queue),
		InflightJobs:   s.inflight.Load(),
		JobsAccepted:   s.accepted.Load(),
		JobsRejected:   s.rejected.Load(),
		JobsDone:       s.finished[0].Load(),
		JobsFailed:     s.finished[1].Load(),
		JobsCanceled:   s.finished[2].Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheSavedS:    s.cache.Saved().Seconds(),
		CacheEvictions: s.cache.Evictions(),
		CacheEntries:   s.cache.Len(),
		CacheBytes:     s.cache.Bytes(),
	}
	if hits+misses > 0 {
		d.CacheHitRatio = float64(hits) / float64(hits+misses)
	}
	s.mu.Lock()
	t0, ev0, h := s.started, s.startEv, s.latency
	d.JobLatencyS = latencyDoc{h.N(), h.Mean(), h.Min(), h.Max(),
		h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)}
	s.mu.Unlock()
	d.SimEventsTotal = sim.GlobalExecuted() - ev0
	if !t0.IsZero() {
		d.UptimeS = time.Since(t0).Seconds()
		if d.UptimeS > 0 {
			d.SimEventsPerS = float64(d.SimEventsTotal) / d.UptimeS
		}
	}
	return d
}

// Start launches the worker pool.
func (s *Server) Start() {
	s.mu.Lock()
	s.started = time.Now()
	s.startEv = sim.GlobalExecuted()
	s.mu.Unlock()
	for w := 0; w < s.opts.Workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.dispatch(j)
			}
		}()
	}
}

// dispatch runs one job unless it was cancelled while queued or the
// server is draining (queued jobs are not started during shutdown —
// drain means finishing the jobs already in flight), then counts the
// job's outcome. Every admitted job is counted once: here, or by
// Shutdown if no worker received it.
func (s *Server) dispatch(j *Job) {
	switch {
	case s.draining.Load():
		j.finish(StateCanceled, "server shutting down before the job started")
	case j.start(time.Now()): // false if cancelled while queued
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		t0 := time.Now()
		s.run(j)
		s.mu.Lock()
		s.latency.Observe(time.Since(t0).Seconds())
		s.mu.Unlock()
	}
	switch j.State() {
	case StateDone:
		s.finished[0].Add(1)
	case StateFailed:
		s.finished[1].Add(1)
	default:
		s.finished[2].Add(1)
	}
}

// runJob executes the job's experiments sequentially (its points run
// concurrently up to the job's Parallel setting), streaming each result
// as it completes. A cancelled context ends the job between points; a
// panicking experiment fails the job without taking the worker down.
func (s *Server) runJob(j *Job) {
	defer func() {
		if rec := recover(); rec != nil {
			j.finish(StateFailed, fmt.Sprintf("experiment panicked: %v", rec))
		}
	}()
	cfg := j.cfg
	cfg.Ctx = j.ctx
	cfg.Cache = s.cache
	for _, r := range j.runners {
		t0 := time.Now()
		res, err := r.RunContext(cfg)
		if err != nil {
			j.finish(StateCanceled, err.Error())
			return
		}
		j.appendResult(res.JSON(time.Since(t0)))
	}
	j.finish(StateDone, "")
}

// Submit validates, admits and registers a new job. parent bounds the
// job's lifetime in addition to the server's own context — attached
// submissions pass their HTTP request context so a client disconnect
// aborts the sweep; detached submissions pass nil.
func (s *Server) Submit(req bench.Request, parent context.Context) (*Job, error) {
	cfg, runners, err := req.Config(s.opts.MaxScale)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	// The registry takes a job only once the queue has admitted it, so
	// a rejected job leaves nothing behind. The send never blocks.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		cancel()
		return nil, ErrDraining
	}
	s.nextID++
	j := newJob(fmt.Sprintf("job-%d", s.nextID), cfg, runners, ctx, cancel, time.Now())
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.rejected.Add(1)
		cancel()
		return nil, ErrQueueFull
	}
	s.accepted.Add(1)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.evictTerminalLocked()
	s.mu.Unlock()

	if parent != nil {
		// Tie the job to the submitting request: if the client goes
		// away before the job finishes, abort the sweep.
		go func() {
			select {
			case <-parent.Done():
				j.Cancel()
			case <-j.Done():
			}
		}()
	}
	return j, nil
}

// evictTerminalLocked forgets the oldest terminal jobs beyond the
// retention bound. Live (queued or running) jobs are never evicted, so
// the registry is bounded by retention + queue depth + workers.
func (s *Server) evictTerminalLocked() {
	excess := len(s.order) - s.opts.Retention
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if excess > 0 {
			if j := s.jobs[id]; j != nil && j.State().Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots the registry in creation order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// RetryAfter estimates the wait an overflowed client should observe
// before retrying.
func (s *Server) RetryAfter() time.Duration {
	s.mu.Lock()
	mean := s.latency.Mean()
	s.mu.Unlock()
	return retryAfter(mean, len(s.queue), s.opts.Workers)
}

// retryAfter estimates how long an overflowed client should wait before
// retrying: the queue's expected service time (mean job latency times
// queued-jobs-per-worker), clamped to [1s, 60s]. With no latency
// history yet it returns the floor.
func retryAfter(meanJobSeconds float64, queued, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	est := time.Duration(meanJobSeconds * float64(queued+1) / float64(workers) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	return est
}

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: admission stops immediately, queued jobs
// are cancelled, and in-flight jobs get until ctx's deadline to finish.
// Past the deadline their contexts are cancelled, which aborts each
// sweep at the next point boundary; Shutdown then waits for the workers
// to return and reports ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.mu.Unlock()
	// The workers drain the closed queue too, and dispatch cancels what
	// they receive; each job is received, and counted, once.
	for j := range s.queue {
		j.finish(StateCanceled, "server shutting down before the job started")
		s.finished[2].Add(1)
	}
	// Cancel any job still queued in the registry (a worker may have
	// pulled it from the channel but not started it).
	for _, j := range s.Jobs() {
		if j.State() == StateQueued {
			j.Cancel()
		}
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll() // aborts in-flight sweeps at the next point
		<-done
		return ctx.Err()
	}
}
