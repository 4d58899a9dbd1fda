package rng

// N returns the number of items.
func (z *Zipf) N() int { return len(z.cdf) }

// P returns the probability of rank i.
func (z *Zipf) P(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
