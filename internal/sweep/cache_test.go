package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

type row struct {
	N int
	F float64
	D int64
}

// TestKeyDeterministic checks the properties the cache relies on: equal
// parts hash equally (including pointer vs. value forms), and any
// differing part — value, type, or arrangement — changes the key.
func TestKeyDeterministic(t *testing.T) {
	r := row{N: 3, F: 2.5, D: 7}
	k := Key("v1", "fig", uint64(1), 0.5, r)
	if k != Key("v1", "fig", uint64(1), 0.5, r) {
		t.Fatal("identical parts produced different keys")
	}
	if k != Key("v1", "fig", uint64(1), 0.5, &r) {
		t.Fatal("pointer and value forms of the same struct must hash equally")
	}
	distinct := map[string]string{
		"version": Key("v2", "fig", uint64(1), 0.5, r),
		"kind":    Key("v1", "gif", uint64(1), 0.5, r),
		"seed":    Key("v1", "fig", uint64(2), 0.5, r),
		"scale":   Key("v1", "fig", uint64(1), 0.25, r),
		"field":   Key("v1", "fig", uint64(1), 0.5, row{N: 4, F: 2.5, D: 7}),
		"type":    Key("v1", "fig", int64(1), 0.5, r),
		"fewer":   Key("v1", "fig", uint64(1), 0.5),
	}
	seen := map[string]string{k: "base"}
	for name, other := range distinct {
		if prev, dup := seen[other]; dup {
			t.Errorf("key for %q collides with %q", name, prev)
		}
		seen[other] = name
	}
}

// refKey is Key over the reference encoder below: the fmt-based walk
// the point cache first shipped with. Every persisted <key>.gob is
// named by its bytes, so Key must reproduce them exactly.
func refKey(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		writeCanon(h, reflect.ValueOf(p))
		h.Write([]byte{0x1f})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeCanon is the reference canonical encoding (see appendCanon).
func writeCanon(w io.Writer, v reflect.Value) {
	if !v.IsValid() {
		io.WriteString(w, "nil")
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		writeCanon(w, v.Elem())
	case reflect.Bool:
		fmt.Fprintf(w, "b%t", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "i%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "u%d", v.Uint())
	case reflect.Float32, reflect.Float64:
		io.WriteString(w, "f")
		io.WriteString(w, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		fmt.Fprintf(w, "s%d:%s", v.Len(), v.String())
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d:", v.Len())
		for i := 0; i < v.Len(); i++ {
			writeCanon(w, v.Index(i))
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case reflect.Struct:
		t := v.Type()
		fmt.Fprintf(w, "{%s", t.String())
		for i := 0; i < t.NumField(); i++ {
			fmt.Fprintf(w, ";%s=", t.Field(i).Name)
			writeCanon(w, v.Field(i))
		}
		io.WriteString(w, "}")
	default:
		panic("sweep: key part of unsupported kind " + v.Kind().String())
	}
}

// canonLeaf and canonTree cover every kind the encoder accepts: each
// integer and float width, uintptr, bools, strings, arrays, slices,
// nil and non-nil pointers and interfaces, nested and unexported fields.
type canonLeaf struct {
	S   string
	F32 float32
	Tag [2]string
	val any
}

type canonTree struct {
	I    int
	I8   int8
	I16  int16
	I32  int32
	I64  int64
	U    uint
	U8   uint8
	U16  uint16
	U32  uint32
	U64  uint64
	UP   uintptr
	F64  float64
	B    bool
	Leaf canonLeaf
	Nil  *canonLeaf
	Ptr  *canonLeaf
	List []canonLeaf
	Any  []any
	next *canonTree
}

// FuzzKeyCanonical checks Key against the reference encoder, byte for
// byte on the canonical encoding and then on the hash, over values
// built from the fuzzed scalars. The seeds cover NaN, signed zeros,
// infinities, strings holding the encoding's own separators, and an
// encoding longer than Key's stack buffer.
func FuzzKeyCanonical(f *testing.F) {
	f.Add(int64(0), uint64(0), 0.0, "", false, uint8(0))
	f.Add(int64(-1), uint64(math.MaxUint64), math.NaN(), "a\x1fb", true, uint8(1))
	f.Add(int64(math.MinInt64), uint64(1<<63), math.Copysign(0, -1), "s3:abc,]", false, uint8(2))
	f.Add(int64(math.MaxInt64), uint64(255), math.Inf(1), "{x;y=}:,", true, uint8(3))
	f.Add(int64(1<<40+7), uint64(65535), math.Inf(-1), ",,::\x1f\x1f", false, uint8(7))
	f.Add(int64(-129), uint64(1<<32), math.SmallestNonzeroFloat64, "nil", true, uint8(5))
	f.Add(int64(32768), uint64(4294967295), 1e21, "\xff\xfe", false, uint8(6))
	f.Add(int64(9), uint64(9), 0.1, strings.Repeat("long,", 600), true, uint8(4)) // past Key's stack buffer
	f.Fuzz(func(t *testing.T, i int64, u uint64, x float64, s string, b bool, shape uint8) {
		leaf := canonLeaf{S: s, F32: float32(x), Tag: [2]string{s[:len(s)/2], ":"}, val: i}
		tree := canonTree{
			I: int(i), I8: int8(i), I16: int16(i), I32: int32(i), I64: i,
			U: uint(u), U8: uint8(u), U16: uint16(u), U32: uint32(u), U64: u, UP: uintptr(u),
			F64: x, B: b, Leaf: leaf,
			Any: []any{nil, u, s, float32(x), (*canonTree)(nil), []string(nil)},
		}
		if shape&1 != 0 {
			tree.Ptr = &leaf
		}
		for range shape % 4 {
			tree.List = append(tree.List, leaf)
		}
		if shape&4 != 0 {
			inner := tree
			tree.next = &inner
		}
		parts := []any{s, i, u, x, b, tree, &tree, [3]any{leaf, nil, shape}, []canonLeaf(nil)}
		for _, p := range parts {
			var want bytes.Buffer
			writeCanon(&want, reflect.ValueOf(p))
			if got := appendCanon(nil, reflect.ValueOf(p)); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("canonical bytes of %#v:\n got %q\nwant %q", p, got, want.Bytes())
			}
		}
		if got, want := Key(parts...), refKey(parts...); got != want {
			t.Fatalf("Key = %s, reference %s", got, want)
		}
	})
}

// TestKeyUnsupportedKindPanics checks that a part the canonical encoder
// cannot hash fails loudly instead of silently aliasing configurations.
func TestKeyUnsupportedKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Key(map) did not panic")
		}
	}()
	Key(map[string]int{"a": 1})
}

// TestCachedRunMemo checks in-process memoization: the second identical
// sweep returns the same rows without invoking fn.
func TestCachedRunMemo(t *testing.T) {
	c := NewPointCache("")
	var calls atomic.Int64
	key := func(i int) string { return Key("memo", i) }
	fn := func(i int) row {
		calls.Add(1)
		return row{N: i, F: float64(i) / 2}
	}
	first := CachedRun(c, 1, 4, key, fn)
	second := CachedRun(c, 1, 4, key, fn)
	if calls.Load() != 4 {
		t.Fatalf("fn ran %d times, want 4 (second sweep must be all hits)", calls.Load())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("row %d: cached %+v != computed %+v", i, second[i], first[i])
		}
	}
	if hits, misses := c.Stats(); hits != 4 || misses != 4 {
		t.Fatalf("stats = %d hits, %d misses; want 4, 4", hits, misses)
	}
}

// TestMemoHitReturnsStoredRow checks that a memo hit hands back the
// row fn computed, not a decoding of its blob: a gob round trip would
// drop the sign of a negative zero in a struct field.
func TestMemoHitReturnsStoredRow(t *testing.T) {
	c := NewPointCache("")
	key := func(int) string { return Key("stored") }
	fn := func(int) row { return row{F: math.Copysign(0, -1)} }
	CachedRun(c, 1, 1, key, fn)
	out := CachedRun(c, 1, 1, key, func(int) row {
		t.Fatal("warm lookup ran fn")
		return row{}
	})
	if !math.Signbit(out[0].F) {
		t.Fatalf("memo hit returned %+v, not the stored row with F = -0", out[0])
	}
}

// TestNegativeZeroSurvivesDisk checks that a row holding -0 in a struct
// field, which gob cannot send, keeps its sign through a cache with a
// directory: the row stays in the memo, no file is written, and a fresh
// cache over the directory simulates the point again.
func TestNegativeZeroSurvivesDisk(t *testing.T) {
	type signRow struct{ V float64 }
	dir := t.TempDir()
	key := func(int) string { return Key("negzero") }
	fn := func(int) signRow { return signRow{V: math.Copysign(0, -1)} }
	for _, c := range []*PointCache{NewPointCache(dir), NewPointCache(dir)} {
		if out := CachedRun(c, 1, 1, key, fn); !math.Signbit(out[0].V) {
			t.Fatalf("disk hit returned %v, want -0", out[0].V)
		}
		if _, misses := c.Stats(); misses != 1 {
			t.Fatalf("%d misses, want 1: the point must be simulated, not read back", misses)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*", "*.gob")); len(files) != 0 {
		t.Fatalf("wrote %v for a row gob cannot round-trip", files)
	}
}

// TestCachedRunRejectsNonPlainRows checks that a row type a memo hit
// could not share (it holds memory the caller could mutate, or a field
// gob drops) panics naming the type, before any point runs.
func TestCachedRunRejectsNonPlainRows(t *testing.T) {
	type sliceRow struct{ Xs []float64 }
	type ptrRow struct{ P *row }
	type hiddenRow struct{ N, n int }
	type nestedRow struct {
		R    row
		Tags [2]map[string]int
	}
	c := NewPointCache("")
	key := func(int) string { return "k" }
	for name, run := range map[string]func(){
		"sweep.sliceRow":  func() { CachedRun(c, 1, 1, key, func(int) sliceRow { return sliceRow{} }) },
		"sweep.ptrRow":    func() { CachedRun(c, 1, 1, key, func(int) ptrRow { return ptrRow{} }) },
		"sweep.hiddenRow": func() { CachedRun(c, 1, 1, key, func(int) hiddenRow { return hiddenRow{} }) },
		"sweep.nestedRow": func() { CachedRun(c, 1, 1, key, func(int) nestedRow { return nestedRow{} }) },
		"[]int":           func() { CachedRun(c, 1, 1, key, func(int) []int { return nil }) },
		"interface {}":    func() { CachedRun(c, 1, 1, key, func(int) any { return 1 }) },
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			run()
			return
		}()
		if !strings.Contains(msg, "point result "+name+" not cacheable") {
			t.Errorf("row type %s: panic %q, want one naming the type", name, msg)
		}
	}
	if c.Len() != 0 {
		t.Errorf("%d memo entries after rejected sweeps, want 0", c.Len())
	}
}

// TestCachedRunPersists checks the disk path: a fresh PointCache over
// the same directory serves every point without recomputation — the
// cross-invocation reuse ioatbench -pointcache relies on — and keeps
// each decoded row, so the next sweep hits its memo.
func TestCachedRunPersists(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	key := func(i int) string { return Key("disk", i) }
	fn := func(i int) row {
		calls.Add(1)
		return row{N: i, D: int64(i) * 1000}
	}
	first := CachedRun(NewPointCache(dir), 1, 3, key, fn)
	fresh := NewPointCache(dir)
	second := CachedRun(fresh, 1, 3, key, fn)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	third := CachedRun(fresh, 1, 3, key, fn)
	if calls.Load() != 3 {
		t.Fatalf("fn ran %d times, want 3 (second cache must hit the files, then its memo)", calls.Load())
	}
	for i := range first {
		if first[i] != second[i] || first[i] != third[i] {
			t.Fatalf("row %d: disk %+v, memo %+v, computed %+v", i, second[i], third[i], first[i])
		}
	}
}

// TestDiskFilesBoundToExecutable checks that a cache directory keeps
// each executable's rows apart: a fresh cache of the binary that wrote
// the rows reads them back, a cache of another binary misses every
// point and files its rows under its own subdirectory, and a binary
// that cannot read itself caches in its memo only.
func TestDiskFilesBoundToExecutable(t *testing.T) {
	defer func(id func() string) { executableID = id }(executableID)
	dir := t.TempDir()
	key := func(i int) string { return Key("bound", i) }
	fn := func(i int) row { return row{N: i, D: int64(i) * 7} }
	const a, b = "00000000000000aa", "00000000000000bb"
	for _, tc := range []struct {
		id                    string
		hits, misses, subdirs int
	}{
		{a, 0, 3, 1},  // a cold directory
		{a, 3, 0, 1},  // the same binary reads its own rows back
		{b, 0, 3, 2},  // another binary reads none of them
		{"", 0, 3, 2}, // an unreadable binary writes nothing
	} {
		executableID = func() string { return tc.id }
		c := NewPointCache(dir)
		want := filepath.Join(dir, tc.id)
		if tc.id == "" {
			want = ""
		}
		if c.Dir() != want {
			t.Fatalf("id %q: Dir() = %q, want %q", tc.id, c.Dir(), want)
		}
		out := CachedRun(c, 1, 3, key, fn)
		for i, r := range out {
			if r != fn(i) {
				t.Fatalf("id %q: row %d = %+v, want %+v", tc.id, i, r, fn(i))
			}
		}
		if hits, misses := c.Stats(); int(hits) != tc.hits || int(misses) != tc.misses {
			t.Errorf("id %q: %d hits, %d misses; want %d, %d", tc.id, hits, misses, tc.hits, tc.misses)
		}
		if subdirs, _ := os.ReadDir(dir); len(subdirs) != tc.subdirs {
			t.Errorf("id %q: %d entries in the cache directory, want %d", tc.id, len(subdirs), tc.subdirs)
		}
	}
	for _, id := range []string{a, b} {
		if files, _ := filepath.Glob(filepath.Join(dir, id, "*.gob")); len(files) != 3 {
			t.Errorf("%s holds %v, want the 3 rows it wrote", id, files)
		}
	}
}

// TestCachedRunCorruptedFile checks that an undecodable cache entry is
// treated as a miss: the point is recomputed and the entry rewritten.
func TestCachedRunCorruptedFile(t *testing.T) {
	dir := t.TempDir()
	key := func(i int) string { return Key("corrupt", i) }
	CachedRun(NewPointCache(dir), 1, 1, key, func(i int) row { return row{N: 42} })
	files, _ := filepath.Glob(filepath.Join(dir, "*", "*.gob"))
	if len(files) != 1 {
		t.Fatalf("cache files %v, want one", files)
	}
	if err := os.WriteFile(files[0], []byte("not gob at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	c := NewPointCache(dir)
	out := CachedRun(c, 1, 1, key, func(i int) row {
		calls.Add(1)
		return row{N: 42}
	})
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1 (corrupted entry must be recomputed)", calls.Load())
	}
	if out[0].N != 42 {
		t.Fatalf("recomputed row = %+v", out[0])
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 1", hits, misses)
	}
	// The rewrite must have healed the entry.
	var calls2 atomic.Int64
	CachedRun(NewPointCache(dir), 1, 1, key, func(i int) row {
		calls2.Add(1)
		return row{N: 42}
	})
	if calls2.Load() != 0 {
		t.Fatal("entry was not rewritten after the corrupted read")
	}
}

// TestCachedRunConcurrent drives one PointCache from a parallel sweep
// with colliding keys (every worker computes the same 8 points), the
// shape the race detector needs to audit the memo and disk paths.
func TestCachedRunConcurrent(t *testing.T) {
	c := NewPointCache(t.TempDir())
	key := func(i int) string { return Key("conc", i%8) }
	fn := func(i int) row { return row{N: i % 8} }
	for pass := 0; pass < 2; pass++ {
		out := CachedRun(c, 8, 64, key, fn)
		for i, r := range out {
			if r.N != i%8 {
				t.Fatalf("pass %d row %d = %+v, want N=%d", pass, i, r, i%8)
			}
		}
	}
	if hits, misses := c.Stats(); hits+misses != 128 {
		t.Fatalf("stats = %d hits + %d misses, want 128 lookups", hits, misses)
	}
}

// TestCachedRunNil checks a nil cache degrades to a plain Run.
func TestCachedRunNil(t *testing.T) {
	out := CachedRun[int](nil, 1, 3, func(i int) string {
		t.Fatal("key must not be called without a cache")
		return ""
	}, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// BenchmarkCachedRunHit is the benchmark ladder's sweep.cache_hit_ns
// rung: a one-point sweep answered from a warm memo.
func BenchmarkCachedRunHit(b *testing.B) {
	type cachedRow struct{ Mbps, CPURecv, CPUSend float64 }
	c := NewPointCache("")
	key := func(int) string { return "point" }
	fn := func(int) cachedRow { return cachedRow{940.5, 0.31, 0.42} }
	CachedRun(c, 1, 1, key, fn)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CachedRunCtx(ctx, c, 1, 1, key, fn); err != nil {
			b.Fatal(err)
		}
	}
}
