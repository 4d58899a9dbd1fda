package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ioatsim/internal/bench"
	"ioatsim/internal/sweep"
)

// --- helpers ---------------------------------------------------------

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	resp.Body.Close()
	return resp, st
}

func waitTerminal(t *testing.T, s *Server, id string, want State) Status {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in state %s", id, j.State())
	}
	st := j.Status(true)
	if st.State != want {
		t.Fatalf("job %s state = %s (err %q), want %s", id, st.State, st.Error, want)
	}
	return st
}

func goldenTable(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	return string(b)
}

// goldenBody is the corpus configuration (Seed 1, Scale 0.05, Check) as
// a job request for the given runners.
func goldenBody(runners ...string) string {
	q, _ := json.Marshal(runners)
	return fmt.Sprintf(`{"runners":%s,"seed":1,"scale":0.05,"check":true}`, q)
}

// --- queue / lifecycle (stubbed runs, no simulation) -----------------

// TestQueueOverflow429 pins admission control: with one worker busy and
// a depth-1 queue occupied, the third submission is rejected with 429
// and a Retry-After hint, and the accepted jobs still finish.
func TestQueueOverflow429(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	started := make(chan *Job, 8)
	release := make(chan struct{})
	s.run = func(j *Job) {
		started <- j
		<-release
		j.finish(StateDone, "")
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, st1 := postJob(t, ts, `{"runners":["fig6"]}`)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	if loc := resp1.Header.Get("Location"); loc != "/v1/jobs/"+st1.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, st1.ID)
	}
	<-started // job 1 is running, worker occupied

	resp2, st2 := postJob(t, ts, `{"runners":["fig6"]}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp2.StatusCode)
	}

	resp3, _ := postJob(t, ts, `{"runners":["fig6"]}`)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp3.StatusCode)
	}
	ra, err := strconv.Atoi(resp3.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 60 {
		t.Errorf("Retry-After = %q, want an integer in [1,60]", resp3.Header.Get("Retry-After"))
	}

	close(release)
	<-started
	waitTerminal(t, s, st1.ID, StateDone)
	waitTerminal(t, s, st2.ID, StateDone)
	if got := s.rejected.Load(); got != 1 {
		t.Errorf("jobs_rejected = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// TestRejectedSubmissionsLeaveNoIDs floods a full queue from several
// goroutines at once: a rejected submission must leave the registry as
// it found it, so the creation order names exactly the registered jobs
// and the retention bound counts only real ones.
func TestRejectedSubmissionsLeaveNoIDs(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.run = func(j *Job) {
		started <- struct{}{}
		<-release
		j.finish(StateDone, "")
	}
	s.Start()
	req := bench.Request{Runners: []string{"fig6"}}
	if _, err := s.Submit(req, nil); err != nil {
		t.Fatal(err)
	}
	<-started // the one worker is busy

	// A second job fills the depth-1 queue.
	if _, err := s.Submit(req, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				if _, err := s.Submit(req, nil); !errors.Is(err, ErrQueueFull) {
					t.Errorf("submit to a full queue: %v, want ErrQueueFull", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	s.mu.Lock()
	order, jobs := len(s.order), len(s.jobs)
	s.mu.Unlock()
	if order != jobs || jobs != 2 {
		t.Errorf("registry holds %d ids for %d jobs after the rejections, want 2 and 2", order, jobs)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// TestEveryAcceptedJobIsCounted pins /metrics' job accounting: once the
// server is idle, every accepted job is counted as done, failed or
// canceled, among them a job cancelled while it was queued.
func TestEveryAcceptedJobIsCounted(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 8)
	release := make(chan struct{})
	s.run = func(j *Job) {
		started <- j
		<-release
		j.finish(StateDone, "")
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts, `{"runners":["fig6"]}`)
	<-started // A running
	_, stB := postJob(t, ts, `{"runners":["fig6"]}`)
	_, stC := postJob(t, ts, `{"runners":["fig6"]}`)
	del, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+stB.ID, nil)
	resp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(release)
	// The worker takes B, and skips it, before C.
	waitTerminal(t, s, stC.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.JobsAccepted != 3 || m.JobsDone != 2 || m.JobsCanceled != 1 ||
		m.JobsAccepted != m.JobsDone+m.JobsFailed+m.JobsCanceled {
		t.Errorf("jobs accepted %d, done %d, failed %d, canceled %d; want 3 = 2 + 0 + 1",
			m.JobsAccepted, m.JobsDone, m.JobsFailed, m.JobsCanceled)
	}
}

// TestCancelRunningJob pins DELETE semantics for an in-flight job: the
// job's context is cancelled and the job goes terminal as canceled.
func TestCancelRunningJob(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 1)
	s.run = func(j *Job) {
		started <- j
		<-j.ctx.Done()
		j.finish(StateCanceled, j.ctx.Err().Error())
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := postJob(t, ts, `{"runners":["fig6"]}`)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	waitTerminal(t, s, st.ID, StateCanceled)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// TestCancelQueuedJob pins that a job cancelled before a worker picks
// it up goes terminal immediately and the worker later skips it.
func TestCancelQueuedJob(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 8)
	release := make(chan struct{})
	s.run = func(j *Job) {
		started <- j
		<-release
		j.finish(StateDone, "")
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, stA := postJob(t, ts, `{"runners":["fig6"]}`)
	<-started // A running
	_, stB := postJob(t, ts, `{"runners":["fig6"]}`)

	jB, _ := s.Job(stB.ID)
	if got := jB.Cancel(); got != StateCanceled {
		t.Fatalf("Cancel() while queued = %s, want canceled", got)
	}
	close(release)
	waitTerminal(t, s, stA.ID, StateDone)
	waitTerminal(t, s, stB.ID, StateCanceled)
	select {
	case j := <-started:
		t.Fatalf("worker started cancelled job %s", j.ID)
	default:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// TestGracefulShutdownDrain pins drain semantics: admission stops
// (503), queued jobs are cancelled, the in-flight job finishes.
func TestGracefulShutdownDrain(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 8)
	release := make(chan struct{})
	s.run = func(j *Job) {
		started <- j
		<-release
		j.finish(StateDone, "")
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, stA := postJob(t, ts, `{"runners":["fig6"]}`)
	<-started // A running
	_, stB := postJob(t, ts, `{"runners":["fig6"]}`)
	_, stC := postJob(t, ts, `{"runners":["fig6"]}`)

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	resp, _ := postJob(t, ts, `{"runners":["fig6"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hresp.StatusCode)
	}

	waitTerminal(t, s, stB.ID, StateCanceled)
	waitTerminal(t, s, stC.ID, StateCanceled)
	close(release)
	waitTerminal(t, s, stA.ID, StateDone)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownTwice: a second Shutdown finds admission already closed
// and returns at once.
func TestShutdownTwice(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Start()
	for i := range 2 {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := s.Shutdown(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Shutdown %d: %v", i+1, err)
		}
	}
}

// TestSubmitAfterShutdown: once the server has drained, a submission is
// refused with ErrDraining and registers no job.
func TestSubmitAfterShutdown(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(bench.Request{Runners: []string{"fig6"}}, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown: %v, want ErrDraining", err)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("registry holds %d jobs after a refused submission, want 0", n)
	}
}

// readStream reads a job's NDJSON stream to its end. It calls first,
// if not nil, once: when the first record has arrived, or on return.
// It reports failures with t.Errorf, so reader goroutines may call it.
func readStream(t *testing.T, url string, first func()) []StreamRecord {
	var once sync.Once
	arrived := func() {
		if first != nil {
			once.Do(first)
		}
	}
	defer arrived()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	var recs []StreamRecord
	dec := json.NewDecoder(resp.Body)
	for {
		var rec StreamRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return recs
		} else if err != nil {
			t.Errorf("record %d: %v", len(recs), err)
			return recs
		}
		recs = append(recs, rec)
		arrived()
	}
}

// wantStream checks a whole stream of a job that ran the given runners
// and ended done: one result per runner in order, then the terminal
// record, numbered from zero.
func wantStream(t *testing.T, recs []StreamRecord, runners ...string) {
	if len(recs) != len(runners)+1 {
		t.Errorf("got %d records, want %d results and the terminal record", len(recs), len(runners))
		return
	}
	for i, id := range runners {
		if rec := recs[i]; rec.Seq != i || rec.Result == nil || rec.Result.ID != id {
			t.Errorf("record %d = %+v, want seq %d with result %s", i, rec, i, id)
		}
	}
	if last := recs[len(runners)]; last.Seq != len(runners) || !last.Done || last.State != StateDone {
		t.Errorf("terminal record = %+v, want seq %d, done", last, len(runners))
	}
}

// TestStreamAfterTerminalRecord: an observer that attaches once a job
// has ended reads its whole stream, every result and then the terminal
// record.
func TestStreamAfterTerminalRecord(t *testing.T) {
	s := New(Options{Workers: 1})
	s.run = func(j *Job) {
		for _, r := range j.runners {
			j.appendResult(bench.ResultJSON{ID: r.ID})
		}
		j.finish(StateDone, "")
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	_, st := postJob(t, ts, `{"runners":["fig3a","fig6"]}`)
	waitTerminal(t, s, st.ID, StateDone)
	wantStream(t, readStream(t, ts.URL+"/v1/jobs/"+st.ID+"/stream", nil), "fig3a", "fig6")
}

// TestConcurrentStreamReaders: several readers hold a job's first
// record and wait while the rest is appended; each reads the whole
// stream.
func TestConcurrentStreamReaders(t *testing.T) {
	s := New(Options{Workers: 1})
	step := make(chan struct{})
	s.run = func(j *Job) {
		for i, r := range j.runners {
			if i > 0 {
				<-step
			}
			j.appendResult(bench.ResultJSON{ID: r.ID})
		}
		<-step
		j.finish(StateDone, "")
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	runners := []string{"fig3a", "fig6", "fig7a"}
	_, st := postJob(t, ts, `{"runners":["fig3a","fig6","fig7a"]}`)
	url := ts.URL + "/v1/jobs/" + st.ID + "/stream"
	var attached, done sync.WaitGroup
	for range 4 {
		attached.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			wantStream(t, readStream(t, url, attached.Done), runners...)
		}()
	}
	attached.Wait()
	for range runners { // the later results, then the terminal record
		step <- struct{}{}
	}
	done.Wait()
}

// TestZeroCacheBoundsAreUnbounded: with both point-cache bounds at 0,
// ioatd's "0: unbounded", the cache keeps every point it stores.
func TestZeroCacheBoundsAreUnbounded(t *testing.T) {
	s := New(Options{})
	const n = 5000
	sweep.CachedRun(s.Cache(), 1, n,
		func(i int) string { return sweep.Key("unbounded", i) },
		func(i int) int { return i })
	if got, ev := s.Cache().Len(), s.Cache().Evictions(); got != n || ev != 0 {
		t.Errorf("cache holds %d of %d points after %d evictions, want all of them and none", got, n, ev)
	}
}

// TestAttachedSubmitDisconnectCancels pins the ?stream=1 contract: the
// job's lifetime is tied to the submitting connection, so hanging up
// aborts the sweep.
func TestAttachedSubmitDisconnectCancels(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	started := make(chan *Job, 1)
	s.run = func(j *Job) {
		started <- j
		<-j.ctx.Done()
		j.finish(StateCanceled, j.ctx.Err().Error())
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, disconnect := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/jobs?stream=1", strings.NewReader(`{"runners":["fig6"]}`))
	go http.DefaultClient.Do(req)

	j := <-started
	disconnect()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job not cancelled after client disconnect (state %s)", j.State())
	}
	if got := j.State(); got != StateCanceled {
		t.Fatalf("state after disconnect = %s, want canceled", got)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(sctx)
}

// TestSubmitValidation pins the 400 path: unknown runners and unknown
// JSON fields are rejected at the door.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	for _, body := range []string{
		`{"runners":["nope"]}`,
		`{"runers":["fig6"]}`,
		`{"scale":-1}`,
		`{"costs":[{"field":"NoSuchKnob","value":1}]}`,
		`{"costs":[{"field":"CacheWays","value":16}]}`,
		`not json`,
	} {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"scale":%g}`, 1e9)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized scale: %d, want 400", resp.StatusCode)
	}
}

// TestSubmitBodyTooLarge pins the request-size cap: a 2 MiB body is
// refused with 413 once maxRequestBytes are read, and the daemon goes
// on admitting and running jobs.
func TestSubmitBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	big := `{"runners":["` + strings.Repeat("x", 2<<20) + `"]}`
	if resp, _ := postJob(t, ts, big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body: %d, want 413", resp.StatusCode)
	}
	resp, st := postJob(t, ts, goldenBody("fig6"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid job after the oversized body: %d, want 202", resp.StatusCode)
	}
	waitTerminal(t, s, st.ID, StateDone)
}

// --- parity and caching (real simulations) ---------------------------

// TestGoldenParity pins the acceptance criterion that a job's rendered
// tables are byte-identical to the CLI's golden corpus for the same
// configuration.
func TestGoldenParity(t *testing.T) {
	runners := []string{"fig3a", "fig6", "extipc"}
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	resp, st := postJob(t, ts, goldenBody(runners...))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	fin := waitTerminal(t, s, st.ID, StateDone)
	if len(fin.Results) != len(runners) {
		t.Fatalf("got %d results, want %d", len(fin.Results), len(runners))
	}
	for i, id := range runners {
		if fin.Results[i].ID != id {
			t.Errorf("result %d is %s, want %s (order must match the request)", i, fin.Results[i].ID, id)
		}
		if got, want := fin.Results[i].Table, goldenTable(t, id); got != want {
			t.Errorf("%s diverges from the golden corpus (daemon output is not CLI-identical)", id)
		}
		if len(fin.Results[i].Rows) == 0 {
			t.Errorf("%s: no structured rows", id)
		}
	}
}

// TestConcurrentJobsByteIdentical runs 8 jobs concurrently on 8 workers
// against a shared cache and requires every table to match the golden
// corpus — the determinism-under-concurrency acceptance criterion.
func TestConcurrentJobsByteIdentical(t *testing.T) {
	ids := []string{"fig3a", "fig3b", "fig5a", "fig6", "fig7a", "ablpin", "ablcoal", "extipc"}
	s, ts := newTestServer(t, Options{Workers: 8, QueueDepth: 16})

	var wg sync.WaitGroup
	jobIDs := make([]string, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, st := postJob(t, ts, goldenBody(id))
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit %s: %d", id, resp.StatusCode)
				return
			}
			jobIDs[i] = st.ID
		}(i, id)
	}
	wg.Wait()
	for i, id := range ids {
		if jobIDs[i] == "" {
			continue
		}
		fin := waitTerminal(t, s, jobIDs[i], StateDone)
		if len(fin.Results) != 1 {
			t.Errorf("%s: %d results, want 1", id, len(fin.Results))
			continue
		}
		if got, want := fin.Results[0].Table, goldenTable(t, id); got != want {
			t.Errorf("%s under 8-way job concurrency diverges from the golden corpus", id)
		}
	}
}

// TestWarmCacheRepeat pins the shared point cache: an identical job
// resubmitted to the same server must be served from memory, at least
// 10x faster than its cold run.
func TestWarmCacheRepeat(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	body := `{"runners":["fig6","fig7a"],"seed":1,"scale":1,"check":true}`

	_, st1 := postJob(t, ts, body)
	cold := waitTerminal(t, s, st1.ID, StateDone)
	_, st2 := postJob(t, ts, body)
	warm := waitTerminal(t, s, st2.ID, StateDone)

	if cold.WallMS <= 0 || warm.WallMS <= 0 {
		t.Fatalf("missing wall times: cold %v ms, warm %v ms", cold.WallMS, warm.WallMS)
	}
	t.Logf("cold %.2f ms, warm %.2f ms (%.0fx)", cold.WallMS, warm.WallMS, cold.WallMS/warm.WallMS)
	if warm.WallMS*10 > cold.WallMS {
		t.Errorf("warm repeat %.2f ms is not >=10x faster than cold %.2f ms", warm.WallMS, cold.WallMS)
	}
	if cold.Results[0].Table != warm.Results[0].Table {
		t.Error("warm result differs from cold result")
	}
	if hits, _ := s.Cache().Stats(); hits == 0 {
		t.Error("warm run recorded no cache hits")
	}
}

// TestStreamObserver pins the NDJSON stream shape: one record per
// experiment in order, then the terminal record, parseable line by
// line.
func TestStreamObserver(t *testing.T) {
	runners := []string{"fig3a", "fig6"}
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	_, st := postJob(t, ts, goldenBody(runners...))

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var recs []StreamRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(runners)+1 {
		t.Fatalf("got %d records, want %d results + 1 terminal", len(recs), len(runners))
	}
	for i, id := range runners {
		if recs[i].Result == nil || recs[i].Result.ID != id {
			t.Errorf("record %d: want result %s, got %+v", i, id, recs[i])
		}
		if recs[i].Seq != i {
			t.Errorf("record %d has seq %d", i, recs[i].Seq)
		}
	}
	last := recs[len(recs)-1]
	if !last.Done || last.State != StateDone {
		t.Errorf("terminal record = %+v, want Done with state done", last)
	}
	waitTerminal(t, s, st.ID, StateDone)
	if got, want := recs[1].Result.Table, goldenTable(t, "fig6"); got != want {
		t.Error("streamed fig6 table diverges from the golden corpus")
	}
}

// TestConcurrentClientsRaceClean hammers every read endpoint while a
// real job runs; go test -race is the assertion.
func TestConcurrentClientsRaceClean(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	_, st := postJob(t, ts, goldenBody("fig3a", "fig6"))

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				for _, path := range []string{
					"/v1/jobs", "/v1/jobs/" + st.ID, "/v1/runners", "/metrics", "/healthz",
				} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	waitTerminal(t, s, st.ID, StateDone)
}

// --- endpoints -------------------------------------------------------

func TestRunnersEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/runners")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Runners []RunnerInfo `json:"runners"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runners) < 20 {
		t.Fatalf("only %d runners listed", len(doc.Runners))
	}
	seen := map[string]bool{}
	for _, r := range doc.Runners {
		if r.ID == "" || r.Title == "" || r.Desc == "" {
			t.Errorf("incomplete runner row: %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate runner id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	for range 2 { // the repeat is served warm, from the point cache
		_, st := postJob(t, ts, goldenBody("fig3a"))
		waitTerminal(t, s, st.ID, StateDone)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{
		"uptime_s", "queue_depth", "inflight_jobs", "jobs_accepted", "jobs_done",
		"job_latency_s", "cache_hits", "cache_hit_ratio", "cache_saved_s", "cache_entries",
		"sim_events_total",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if doc["jobs_done"].(float64) < 1 {
		t.Errorf("jobs_done = %v, want >= 1", doc["jobs_done"])
	}
	if doc["sim_events_total"].(float64) <= 0 {
		t.Errorf("sim_events_total = %v, want > 0", doc["sim_events_total"])
	}
	if doc["cache_saved_s"].(float64) <= 0 {
		t.Errorf("cache_saved_s = %v after a warm repeat, want > 0", doc["cache_saved_s"])
	}
	lat, ok := doc["job_latency_s"].(map[string]any)
	if !ok || lat["count"].(float64) < 1 {
		t.Errorf("job_latency_s = %v, want a histogram with samples", doc["job_latency_s"])
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/job-999"},
		{http.MethodDelete, "/v1/jobs/job-999"},
		{http.MethodGet, "/v1/jobs/job-999/stream"},
	} {
		r, _ := http.NewRequest(req.method, ts.URL+req.path, nil)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

// TestRetentionEvictsTerminalJobs pins the registry bound: old terminal
// jobs are forgotten, live ones never are.
func TestRetentionEvictsTerminalJobs(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 8, Retention: 2})
	s.run = func(j *Job) { j.finish(StateDone, "") }
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		_, st := postJob(t, ts, `{"runners":["fig6"]}`)
		ids = append(ids, st.ID)
		waitTerminal(t, s, st.ID, StateDone)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Errorf("oldest terminal job %s not evicted at retention 2", ids[0])
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Errorf("newest job %s evicted", ids[3])
	}
	if got := len(s.Jobs()); got > 3 {
		t.Errorf("registry holds %d jobs, want <= 3", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

func TestRetryAfterEstimate(t *testing.T) {
	cases := []struct {
		mean    float64
		queued  int
		workers int
		want    time.Duration
	}{
		{0, 10, 2, time.Second},      // no history: floor
		{2.0, 3, 2, 4 * time.Second}, // 2s * 4 jobs / 2 workers
		{120, 50, 1, time.Minute},    // clamped to the ceiling
		{0.001, 0, 4, time.Second},   // tiny jobs: floor
		{1.0, 7, 0, 8 * time.Second}, // workers floor at 1
	}
	for _, c := range cases {
		if got := retryAfter(c.mean, c.queued, c.workers); got != c.want {
			t.Errorf("retryAfter(%v, %d, %d) = %v, want %v", c.mean, c.queued, c.workers, got, c.want)
		}
	}
}
