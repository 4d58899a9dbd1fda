package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ioatsim/internal/serve"
)

// serveJobsPerRound is the length of the job sequence one round replays
// against a fresh daemon: long enough that the LRU bound evicts
// throughout a round, short enough that the clusters finished
// simulations leak keep the process near 250 MB.
const serveJobsPerRound = 500

// serveSystem is ioatd running in process behind a loopback listener,
// driven over HTTP the way a client drives cmd/ioatd.
type serveSystem struct {
	in     serveInputs
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	mu  sync.Mutex
	ref map[int]string // catalogue index -> first response's tables
}

// startServe starts the daemon and waits for its health check.
func startServe(in serveInputs) (*serveSystem, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &serveSystem{
		in: in,
		srv: serve.New(serve.Options{
			Workers:      serveWorkers,
			CacheEntries: serveCacheEntries,
			CacheBytes:   serveCacheBytes,
		}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
		}},
		ref: map[int]string{},
	}
	s.srv.Start()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// round replays the job sequence with serveClients closed-loop clients:
// each submits its next job only when the previous one's terminal record
// has arrived. A job's output is its tables; every response for one
// catalogue entry must match the first.
func (s *serveSystem) round(rep *childReport, rec *recorder, parent int64) {
	n := len(s.in.jobs)
	rep.Ops = make([]time.Duration, n)
	rep.Attempted += n
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
	)
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				lat, err := s.job(i, c, rec, parent)
				rep.Ops[i] = lat
				if err != nil {
					mu.Lock()
					rep.fail("job %d: %v", i, err)
					if errors.Is(err, errRejected) {
						rep.Rejected++
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(t0)
	for entry, tables := range s.ref {
		e := s.in.catalogue[entry]
		rep.Outputs[fmt.Sprintf("%s/%d", e.Runner, e.Seed)] = digest(tables)
	}
}

// errRejected marks a job the daemon's admission control refused (429).
var errRejected = errors.New("rejected")

// job submits sequence entry i attached (?stream=1), reads the NDJSON
// stream to its terminal record and checks the tables against the first
// response for the same catalogue entry. It returns the latency until the
// terminal record.
func (s *serveSystem) job(i, client int, rec *recorder, parent int64) (time.Duration, error) {
	entry := s.in.jobs[i]
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/jobs?stream=1", "application/json",
		strings.NewReader(s.in.catalogue[entry].body()))
	if err != nil {
		return time.Since(t0), err
	}
	defer resp.Body.Close()
	tHead := time.Now()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		err := fmt.Errorf("POST /v1/jobs answered %s", resp.Status)
		if resp.StatusCode == http.StatusTooManyRequests {
			err = fmt.Errorf("%w: %v", errRejected, err)
		}
		return time.Since(t0), err
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var (
		tables strings.Builder
		tFirst time.Time
		done   *serve.StreamRecord
	)
	for done == nil && sc.Scan() {
		if tFirst.IsZero() {
			tFirst = time.Now()
		}
		var sr serve.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &sr); err != nil {
			return time.Since(t0), fmt.Errorf("stream record: %w", err)
		}
		if sr.Result != nil {
			tables.WriteString(sr.Result.Table)
		}
		if sr.Done {
			done = &sr
		}
	}
	tDone := time.Now()
	io.Copy(io.Discard, resp.Body) // let the connection be reused
	lat := tDone.Sub(t0)

	if rec != nil {
		job := fmt.Sprintf("job-%d", i)
		id := rec.id()
		rec.add(span{Parent: id, Name: "submit", Tid: client, Job: job}, t0, tHead)
		rec.add(span{Parent: id, Name: "first record", Tid: client, Job: job}, tHead, tFirst)
		rec.add(span{Parent: id, Name: "done", Tid: client, Job: job}, tFirst, tDone)
		rec.add(span{ID: id, Parent: parent, Name: s.in.catalogue[entry].Runner, Tid: client, Job: job}, t0, tDone)
	}

	switch {
	case sc.Err() != nil:
		return lat, fmt.Errorf("reading stream: %w", sc.Err())
	case done == nil:
		return lat, fmt.Errorf("stream ended without a terminal record")
	case done.State != serve.StateDone:
		return lat, fmt.Errorf("job ended %s: %s", done.State, done.Error)
	}
	got := tables.String()
	s.mu.Lock()
	want, seen := s.ref[entry]
	if !seen {
		s.ref[entry] = got
	}
	s.mu.Unlock()
	if seen && got != want {
		return lat, fmt.Errorf("%s seed %d: tables differ from the first response",
			s.in.catalogue[entry].Runner, s.in.catalogue[entry].Seed)
	}
	return lat, nil
}

func (s *serveSystem) cacheStats() (hits, misses, evictions uint64) {
	c := s.srv.Cache()
	hits, misses = c.Stats()
	return hits, misses, c.Evictions()
}

// close stops the listener and the daemon and waits for both.
func (s *serveSystem) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}
