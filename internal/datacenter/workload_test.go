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
	if len(names) != 50 || fs.Len() != 50 {
		t.Fatalf("generated %d names, fs has %d", len(names), fs.Len())
	}
	for _, n := range names {
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
	tr := newZipfTrace(rng.New(1), names, 0.95)
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[tr.next()]++
	}
	if counts[names[0]] <= counts[names[50]] {
		t.Fatalf("rank 0 (%d) not above rank 50 (%d)",
			counts[names[0]], counts[names[50]])
	}
	// Every draw must name a real file.
	for name := range counts {
		if _, ok := fs.Open(name); !ok {
			t.Fatalf("trace produced unknown file %q", name)
		}
	}
}

func TestZipfEmptyCatalogPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty catalog did not panic")
		}
	}()
	newZipfTrace(rng.New(1), nil, 0.9)
}
