package datacenter

import (
	"testing"

	"ioatsim/internal/cost"
	"ioatsim/internal/mem"
	"ioatsim/internal/ramfs"
	"ioatsim/internal/rng"
)

func newFS() *ramfs.FS {
	return ramfs.New(mem.NewModel(cost.Default()))
}

func TestSingleFile(t *testing.T) {
	tr := &singleFile{path: "a.html"}
	for i := 0; i < 5; i++ {
		if tr.next() != "a.html" {
			t.Fatal("single-file trace wandered")
		}
	}
}

func TestGenerateUniform(t *testing.T) {
	fs := newFS()
	names := generateDocs(fs, nil, 50, 4096, 4096)
	if len(names) != 50 {
		t.Fatalf("generated %d names, want 50", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("name %q generated twice", n)
		}
		seen[n] = true
		if s := fs.MustOpen(n).Size(); s != 4096 {
			t.Fatalf("size[%s] = %d", n, s)
		}
	}
}

func TestGenerateSpread(t *testing.T) {
	fs := newFS()
	r := rng.New(7)
	names := generateDocs(fs, r, 200, 1024, 16384)
	varied := false
	for _, n := range names {
		s := fs.MustOpen(n).Size()
		if s < 1024 || s > 16384 {
			t.Fatalf("size %d out of range", s)
		}
		if s != fs.MustOpen(names[0]).Size() {
			varied = true
		}
	}
	if !varied {
		t.Fatal("spread produced uniform sizes")
	}
}

func TestZipfTraceFavorsPopular(t *testing.T) {
	fs := newFS()
	names := generateDocs(fs, nil, 100, 1024, 1024)
	tr := newTraces(rng.New(1), names, 0.95)()
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[tr.next()]++
	}
	if counts[names[0]] <= counts[names[50]] {
		t.Fatalf("rank 0 (%d) not above rank 50 (%d)",
			counts[names[0]], counts[names[50]])
	}
	// Every draw must name a real file (MustOpen panics on a miss).
	for name := range counts {
		fs.MustOpen(name)
	}
}

// TestSharedZipfTableDrawsAsPerThreadTables: the run's one Zipf table
// gives every thread the draws that a table of its own gave it, with the
// threads' streams forked in the same order.
func TestSharedZipfTableDrawsAsPerThreadTables(t *testing.T) {
	names := generateDocs(newFS(), nil, 1000, 1024, 1024)
	const threads, draws = 16, 500
	traces := newTraces(rng.New(3), names, 0.9)
	shared := make([]trace, threads)
	for i := range shared {
		shared[i] = traces()
	}
	r := rng.New(3)
	for i, tr := range shared {
		own := &zipfTrace{names: names, z: rng.NewZipf(len(names), 0.9), r: r.Fork()}
		for d := 0; d < draws; d++ {
			if got, want := tr.next(), own.next(); got != want {
				t.Fatalf("thread %d, draw %d: the shared table gave %s, a table of its own %s", i, d, got, want)
			}
		}
	}
}

func TestZipfEmptyCatalogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty catalog did not panic")
		}
	}()
	newTraces(rng.New(1), nil, 0.9)
}
