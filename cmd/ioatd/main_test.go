package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"ioatsim/internal/serve"
)

// startDaemon serves a fresh job server on a loopback port through
// newHTTPServer with the given bounds and returns its address.
func startDaemon(t *testing.T, readHeader, idle time.Duration) string {
	t.Helper()
	srv := serve.New(serve.Options{Workers: 1, QueueDepth: 4})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", srv.Handler(), readHeader, idle)
	go hs.Serve(ln)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

// TestHalfRequestLineClosed: a client that sends half a request line and
// then nothing loses its connection once the header timeout passes (the
// server answers 400 and closes).
func TestHalfRequestLineClosed(t *testing.T) {
	const timeout = 100 * time.Millisecond
	addr := startDaemon(t, timeout, timeout)
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := io.WriteString(c, "GET /v1/run"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(start.Add(10 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("the server kept the connection open: %v", err)
	}
	if elapsed := time.Since(start); elapsed < timeout/2 || elapsed > 5*time.Second {
		t.Errorf("connection closed after %v, want about %v", elapsed, timeout)
	}
}

// TestAttachedStreamOutlivesTimeouts: a job whose response stays open
// for longer than both bounds still streams every record and reaches
// done, because neither bound limits a response in progress.
func TestAttachedStreamOutlivesTimeouts(t *testing.T) {
	const timeout = 50 * time.Millisecond
	addr := startDaemon(t, timeout, timeout)
	start := time.Now()
	resp, err := http.Post("http://"+addr+"/v1/jobs?stream=1", "application/json",
		strings.NewReader(`{"runners":["fig3a","fig4"],"seed":1,"scale":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recs []serve.StreamRecord
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec serve.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke after %d records: %v", len(recs), err)
	}
	if elapsed := time.Since(start); elapsed < 2*timeout {
		t.Fatalf("the job took %v, not longer than the %v bounds it must outlive", elapsed, timeout)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 2 results and the terminal record", len(recs))
	}
	if last := recs[2]; !last.Done || last.State != serve.StateDone {
		t.Fatalf("terminal record = %+v, want done", last)
	}
}
