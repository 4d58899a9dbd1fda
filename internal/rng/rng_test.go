package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide too often: %d", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(1)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		nn := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(nn)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnCoverage(t *testing.T) {
	r := New(99)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[r.Intn(10)] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) covered %d values, want 10", len(seen))
	}
}

func TestZipfProbabilities(t *testing.T) {
	z := NewZipf(100, 0.95)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		p := z.P(i)
		if p <= 0 {
			t.Fatalf("P(%d) = %v", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if z.P(0) <= z.P(1) || z.P(1) <= z.P(10) {
		t.Fatal("Zipf probabilities not decreasing")
	}
}

func TestZipfEmpirical(t *testing.T) {
	r := New(77)
	const n, alpha = 50, 1.0
	z := NewZipf(n, alpha)
	counts := make([]int, n)
	const draws = 500000
	for i := 0; i < draws; i++ {
		counts[z.Draw(r)]++
	}
	// Rank 0 should be drawn about P(0)*draws times.
	want := z.P(0) * draws
	if math.Abs(float64(counts[0])-want)/want > 0.05 {
		t.Fatalf("rank-0 count = %d, want ~%v", counts[0], want)
	}
	// Popularity must broadly decrease with rank.
	if counts[0] <= counts[10] || counts[10] <= counts[40] {
		t.Fatalf("counts not Zipf-shaped: %v %v %v", counts[0], counts[10], counts[40])
	}
}

func TestZipfAlphaEffect(t *testing.T) {
	// Higher alpha concentrates mass on low ranks.
	high := NewZipf(1000, 0.95)
	low := NewZipf(1000, 0.5)
	if high.P(0) <= low.P(0) {
		t.Fatalf("P0(alpha=.95)=%v should exceed P0(alpha=.5)=%v", high.P(0), low.P(0))
	}
}

func TestZipfRangeProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		nn := int(n%200) + 1
		z, r := NewZipf(nn, 0.8), New(seed)
		for i := 0; i < 200; i++ {
			v := z.Draw(r)
			if v < 0 || v >= nn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFork(t *testing.T) {
	a := New(9)
	b := a.Fork()
	c := a.Fork()
	if b.Uint64() == c.Uint64() {
		t.Fatal("forked streams identical")
	}
}
