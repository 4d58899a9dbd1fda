// Point-level result caching for sweeps.
//
// Every sweep point is a pure function of its configuration: the same
// seed, scale, parameter set and code produce byte-identical rows (the
// property the golden corpus pins). That makes each point's result
// content-addressable — Key hashes a canonical encoding of the point's
// configuration, and PointCache memoizes the row under that key,
// in process and optionally on disk as its gob encoding. Repeated
// invocations (re-rendering figures, iterating on one experiment while
// the rest are untouched, CI re-runs of one build) then skip the
// simulation entirely.
//
// A key sees configurations, not the model code, so a directory keeps
// each executable's files apart (see NewPointCache).
package sweep

import (
	"bytes"
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"
)

// Key returns the content-addressed identity of one sweep point: a hex
// SHA-256 over a canonical encoding of parts. Parts may be numbers,
// bools, strings, and (pointers to) structs, slices or arrays of those;
// struct fields are folded in by name in declaration order, so the key
// is deterministic across processes. Unsupported kinds (maps, funcs,
// channels) panic: silently skipping a part would alias distinct
// configurations to one key.
func Key(parts ...any) string {
	var buf [2048]byte // a figure point's encoding fits; longer ones grow
	b := buf[:0]
	for _, p := range parts {
		b = append(appendCanon(b, reflect.ValueOf(p)), 0x1f)
	}
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
}

// appendCanon appends v's canonical encoding to b. Every scalar is
// prefixed with a kind tag and structs with their full type name, so
// values of different types never collide ("1" as int vs. uint vs. "1"
// the string), and reordering or renaming struct fields changes the key.
// The tests pin the bytes against a fmt-based reference encoder.
func appendCanon(b []byte, v reflect.Value) []byte {
	if !v.IsValid() {
		return append(b, "nil"...)
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, "nil"...)
		}
		return appendCanon(b, v.Elem())
	case reflect.Bool:
		return strconv.AppendBool(append(b, 'b'), v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(append(b, 'i'), v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(append(b, 'u'), v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		return strconv.AppendFloat(append(b, 'f'), v.Float(), 'g', -1, 64)
	case reflect.String:
		// Length-prefixed so adjacent strings can't run together.
		b = strconv.AppendInt(append(b, 's'), int64(v.Len()), 10)
		return append(append(b, ':'), v.String()...)
	case reflect.Slice, reflect.Array:
		b = strconv.AppendInt(append(b, '['), int64(v.Len()), 10)
		b = append(b, ':')
		for i := 0; i < v.Len(); i++ {
			b = append(appendCanon(b, v.Index(i)), ',')
		}
		return append(b, ']')
	case reflect.Struct:
		st := describe(v.Type())
		b = append(append(b, '{'), st.name...)
		for i, name := range st.fields {
			b = append(append(append(b, ';'), name...), '=')
			b = appendCanon(b, v.Field(i))
		}
		return append(b, '}')
	}
	panic("sweep: key part of unsupported kind " + v.Kind().String())
}

// structInfo is what Key and the plain-row check read of a struct type.
// It is kept per type, because reflect allocates on every Type.Field.
type structInfo struct {
	name   string   // the full type name, t.String()
	fields []string // field names in declaration order
	plain  bool     // see plain
}

var structInfos sync.Map // reflect.Type -> *structInfo

// describe returns struct type t's structInfo, reading reflect on the
// first call for t.
func describe(t reflect.Type) *structInfo {
	if st, ok := structInfos.Load(t); ok {
		return st.(*structInfo)
	}
	st := &structInfo{name: t.String(), fields: make([]string, t.NumField()), plain: true}
	for i := range st.fields {
		f := t.Field(i)
		st.fields[i] = f.Name
		st.plain = st.plain && f.IsExported() && plain(f.Type)
	}
	got, _ := structInfos.LoadOrStore(t, st)
	return got.(*structInfo)
}

// plain reports whether t is a plain value type: bools, real numbers,
// strings, and arrays or structs of those with every field exported. A
// copy of a plain value shares no memory with the original, so the memo
// can hand one stored row to every hit, and Key can encode it. A gob
// round trip returns the value it was given, bar the sign of a negative
// zero in a struct field, which gob does not send; CachedRun writes no
// file for such a row.
func plain(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return plain(t.Elem())
	case reflect.Struct:
		return describe(t).plain
	}
	return false
}

// PointCache memoizes sweep-point results by content-addressed key. An
// in-process map serves hits across the figures of one invocation; with
// a directory it also persists each result's gob encoding as
// <dir>/<id>/<key>.gob, where id names the running executable (see
// NewPointCache), so later runs of the same binary at the same
// configuration skip the simulation. Safe for concurrent use by
// parallel sweep workers.
//
// The in-process memo is optionally bounded (see Bound), so a
// long-running server can share one cache across an unbounded job
// stream without growing without limit. Points differ in what a miss
// costs (at scale 0.05 a fig7a point simulates ~100x longer than an
// ablpin one), so eviction is GreedyDual (Cao & Irani, USITS 1997)
// rather than LRU: each entry records the host time that produced it,
// its priority is the cache's inflation value L plus that cost,
// refreshed on every use, and the lowest priority goes first, raising
// L to it. Cheap points make room before expensive ones, yet L's rise
// ages out an expensive entry nothing uses any more; with equal costs
// the victims are exactly LRU's. Eviction only forgets the in-process
// copy — a persisted entry is re-promoted from disk on the next lookup.
type PointCache struct {
	dir string

	mu         sync.Mutex
	memo       map[string]*memoEntry
	queue      evictQueue    // eviction order, lowest priority first
	clock      time.Duration // GreedyDual's inflation value L; never falls
	uses       uint64        // last use sequence number handed out
	bytes      int64         // sum of memoized payload lengths
	maxEntries int           // 0 = unbounded
	maxBytes   int64         // 0 = unbounded
	hits       uint64
	misses     uint64
	evictions  uint64
	saved      time.Duration // summed cost of every hit
}

// memoEntry is one memoized result: the row every memo hit returns,
// and its gob encoding, which the byte bound counts and the disk holds.
type memoEntry struct {
	key  string
	blob []byte
	row  any           // the plain value blob encodes (see plain)
	cost time.Duration // host time that produced this copy of blob
	prio time.Duration // L + cost at the last use
	seq  uint64        // use sequence number of the last use
	idx  int           // position in the eviction queue
}

// evictQueue is a binary min-heap (container/heap) of the memo's
// entries by (prio, seq): the lowest priority first, and among equal
// priorities the least recently used.
type evictQueue []*memoEntry

func (q evictQueue) Len() int { return len(q) }

func (q evictQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].seq < q[j].seq
}

func (q evictQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}

func (q *evictQueue) Push(x any) {
	e := x.(*memoEntry)
	e.idx = len(*q)
	*q = append(*q, e)
}

func (q *evictQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

// NewPointCache returns an unbounded cache memoizing in process. If dir
// is non-empty, results are also persisted in its subdirectory named by
// executableID (created on first store), so a row is read back only by
// the binary that wrote it: a change to the model or to a row type
// makes a new binary, and a new binary starts cold. If the executable
// cannot be read, the cache stays memo-only.
func NewPointCache(dir string) *PointCache {
	if dir != "" {
		if id := executableID(); id != "" {
			dir = filepath.Join(dir, id)
		} else {
			dir = ""
		}
	}
	return &PointCache{dir: dir, memo: make(map[string]*memoEntry)}
}

// executableID returns the first 16 hex digits of the SHA-256 of the
// running executable, or "" if it cannot be read. The file is hashed
// once per process, at the first NewPointCache with a directory, so a
// daemon whose binary is replaced on disk keeps filing rows under its
// own id. Tests replace it.
var executableID = sync.OnceValue(func() string {
	path, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
})

// Bound caps the in-process memo at maxEntries results and maxBytes
// payload bytes (either 0 = unbounded in that dimension) and returns c.
// Exceeding a cap evicts the lowest-priority entries, except that the
// most recently stored or hit entry always stays — a single result
// larger than maxBytes must not thrash. Safe to call at any point;
// existing excess entries are evicted immediately.
func (c *PointCache) Bound(maxEntries int, maxBytes int64) *PointCache {
	c.mu.Lock()
	c.maxEntries = maxEntries
	c.maxBytes = maxBytes
	c.evict()
	c.mu.Unlock()
	return c
}

// Dir reports the directory the cache persists to, this executable's
// subdirectory of the one NewPointCache was given ("" for memo-only).
func (c *PointCache) Dir() string { return c.dir }

// Stats reports how many point lookups hit and missed so far.
func (c *PointCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions reports how many memo entries the bound has dropped.
func (c *PointCache) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Saved reports the host time the hits so far did not spend: the sum of
// the recorded cost of each memo hit's entry. A hit read from disk
// counts nothing, since this process never timed that point, so Saved
// is a lower bound.
func (c *PointCache) Saved() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saved
}

// Len reports the number of in-process memo entries.
func (c *PointCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.memo)
}

// Bytes reports the payload bytes held by the in-process memo.
func (c *PointCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// use makes e the newest entry, sets its priority to L + its cost and
// restores the queue order. Callers hold c.mu.
func (c *PointCache) use(e *memoEntry) {
	c.uses++
	e.seq = c.uses
	e.prio = c.clock + e.cost
	heap.Fix(&c.queue, e.idx)
}

// over reports whether the memo exceeds a configured cap.
func (c *PointCache) over() bool {
	return (c.maxEntries > 0 && len(c.memo) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

// evict drops the lowest-priority entries until the memo fits its caps,
// always sparing the newest entry, and raises L to each victim's
// priority. Each eviction is O(log n): when the newest entry heads the
// queue, the next victim is the lower of its two children. Callers hold
// c.mu.
func (c *PointCache) evict() {
	for c.over() && len(c.queue) > 1 {
		i := 0
		if c.queue[0].seq == c.uses {
			i = 1
			if len(c.queue) > 2 && c.queue.Less(2, 1) {
				i = 2
			}
		}
		victim := heap.Remove(&c.queue, i).(*memoEntry)
		delete(c.memo, victim.key)
		c.bytes -= int64(len(victim.blob))
		c.clock = max(c.clock, victim.prio)
		c.evictions++
	}
}

// insert records key -> (blob, row), produced at the given cost, in the
// memo (replacing any existing entry), makes it the newest entry, and
// enforces the caps.
func (c *PointCache) insert(key string, blob []byte, row any, cost time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.memo[key]
	if !ok {
		e = &memoEntry{key: key, idx: len(c.queue)}
		c.memo[key] = e
		c.queue = append(c.queue, e) // use sifts it into place
	}
	c.bytes += int64(len(blob)) - int64(len(e.blob))
	e.blob, e.row, e.cost = blob, row, cost
	c.use(e)
	c.evict()
}

// fetch returns the stored row for key, consulting the memo map first
// and the persistence directory second. A file is decoded once, by
// decode, and promoted into the memo with its row at the cost of the
// file read; a file decode rejects is a miss. saved is the recorded
// cost of a memo hit's entry, and 0 for a disk hit.
func (c *PointCache) fetch(key string, decode func([]byte) (any, bool)) (row any, saved time.Duration, ok bool) {
	c.mu.Lock()
	if e, ok := c.memo[key]; ok {
		row, saved = e.row, e.cost
		c.use(e)
		c.mu.Unlock()
		return row, saved, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		return nil, 0, false
	}
	t0 := time.Now()
	blob, err := os.ReadFile(filepath.Join(c.dir, key+".gob"))
	if err != nil {
		return nil, 0, false
	}
	cost := time.Since(t0)
	if row, ok = decode(blob); !ok {
		return nil, 0, false
	}
	c.insert(key, blob, row, cost)
	return row, 0, true
}

// put records the row and its encoding for key, produced at the given
// cost. Disk writes go through a temp file and rename, so a crashed or
// concurrent run never leaves a half-written entry (a corrupted entry
// would be recomputed anyway, see CachedRun). Persistence errors are
// deliberately swallowed: the cache is an accelerator, never a
// correctness dependency.
func (c *PointCache) put(key string, blob []byte, row any, cost time.Duration) {
	c.insert(key, blob, row, cost)
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, key+".gob")); err != nil {
		os.Remove(tmp.Name())
	}
}

// count adjusts the hit/miss tallies; saved is what a hit did not
// spend (see fetch).
func (c *PointCache) count(hit bool, saved time.Duration) {
	c.mu.Lock()
	if hit {
		c.hits++
		c.saved += saved
	} else {
		c.misses++
	}
	c.mu.Unlock()
}

// CachedRun is Run with per-point memoization: before computing point
// i, the cache is consulted at key(i), and a hit is returned without
// running fn. A memo hit returns the stored row itself, and a disk hit
// decodes its file once. Misses — including files that fail to decode,
// e.g. a truncated or corrupted cache file — run fn and store its row
// and gob encoding, writing a file only if the encoding decodes back to
// a row with the same Key. T must be a plain value type (see plain), or
// CachedRun panics naming it. A nil cache degrades to plain Run.
func CachedRun[T any](c *PointCache, parallel, n int, key func(i int) string, fn func(i int) T) []T {
	out, _ := CachedRunCtx(context.Background(), c, parallel, n, key, fn)
	return out
}

// CachedRunCtx is CachedRun under a context, with RunCtx's cancellation
// contract: no new point (cached or not) starts once ctx is cancelled,
// and the call returns ctx.Err() alongside the partial results.
func CachedRunCtx[T any](ctx context.Context, c *PointCache, parallel, n int, key func(i int) string, fn func(i int) T) ([]T, error) {
	if c == nil {
		return RunCtx(ctx, parallel, n, fn)
	}
	if t := reflect.TypeFor[T](); !plain(t) {
		panic(fmt.Sprintf("sweep: point result %v not cacheable: memo hits share one stored row, "+
			"so it must be bools, numbers, strings, and arrays or structs of those with exported fields", t))
	}
	decode := func(blob []byte) (any, bool) {
		var out T
		err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&out)
		return out, err == nil
	}
	return RunCtx(ctx, parallel, n, func(i int) T {
		k := key(i)
		if row, saved, ok := c.fetch(k, decode); ok {
			if out, ok := row.(T); ok {
				c.count(true, saved)
				return out
			}
		}
		c.count(false, 0)
		t0 := time.Now()
		out := fn(i)
		cost := time.Since(t0)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&out); err != nil {
			panic(fmt.Sprintf("sweep: point result %T not cacheable: %v", out, err))
		}
		if c.dir != "" {
			// gob drops the sign of a negative zero in a struct field,
			// and Key prints -0 and 0 apart: a row whose file would not
			// read back as itself stays in the memo only.
			if back, ok := decode(buf.Bytes()); !ok || Key(back) != Key(out) {
				c.insert(k, buf.Bytes(), out, cost)
				return out
			}
		}
		c.put(k, buf.Bytes(), out, cost)
		return out
	})
}
