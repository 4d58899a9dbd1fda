// Package rng provides a small, deterministic random-number generator and
// the distributions the workloads need (uniform and Zipf).
//
// The generator is xoshiro256**, seeded through splitmix64, so identical
// seeds produce identical streams on every platform — a requirement for
// reproducible simulation runs.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. Not safe for concurrent
// use; simulation code is single-threaded by construction.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A state of all zeros is the one forbidden state; splitmix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Fork returns a new generator deterministically derived from this one's
// next output, for giving sub-components independent streams.
func (r *Rand) Fork() *Rand { return New(r.Uint64()) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Zipf draws ranks in [0, n) with P(i) proportional to 1/(i+1)^alpha,
// the distribution the paper uses for data-center document popularity
// (Breslau et al., INFOCOM'99). It precomputes the CDF and samples by
// binary search, which is exact and fast for the catalog sizes we use.
// It holds no stream, so one table serves every stream that draws from
// it.
type Zipf struct {
	cdf []float64
}

// NewZipf returns a Zipf table over n items with exponent alpha > 0.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if alpha <= 0 {
		panic("rng: Zipf with non-positive alpha")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf}
}

// Draw draws a rank in [0, n) from r; rank 0 is the most popular item.
func (z *Zipf) Draw(r *Rand) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
