// The pending-event set: a 4-ary min-heap of events ordered by
// (at, seq), held by value in one slice.
//
// The experiments keep few events pending at once — at most 778 in any
// runner (DESIGN §4e) — so a heap a few levels deep orders them in a
// handful of comparisons. Four children per node halve a binary heap's
// depth, and sifting moves a hole instead of swapping. pop zeroes the
// slot it vacates, so no dispatched callback stays reachable, and the
// slice's capacity is reused: the steady state allocates nothing.
package sim

// enqueue adds an event at time at, which must not precede the clock
// (push checks), and numbers it after every event before it. Being the
// newest, it follows any pending event of the same time, so sifting it
// up compares times only.
//
//ioat:hotpath
func (s *Simulator) enqueue(at Time, fn func(), argFn func(any), arg any) {
	s.seq++
	h := append(s.heap, event{})
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p].at <= at {
			break
		}
		h[i] = h[p]
		i = p
	}
	e := &h[i]
	e.at, e.seq, e.fn, e.argFn, e.arg = at, s.seq, fn, argFn, arg
	s.heap = h
	if len(h) > s.peak {
		s.peak = len(h)
	}
}

// pop removes the earliest pending event and returns its time and
// callback (exactly one of fn and argFn is non-nil). The pending set
// must be non-empty.
//
//ioat:hotpath
func (s *Simulator) pop() (at Time, fn func(), argFn func(any), arg any) {
	h := s.heap
	at, fn, argFn, arg = h[0].at, h[0].fn, h[0].argFn, h[0].arg
	n := len(h) - 1
	if n > 0 {
		// Sift the last event down from the root's hole.
		last := h[n]
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if h[j].before(&h[best]) {
					best = j
				}
			}
			if !h[best].before(&last) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = last
	}
	h[n] = event{}
	s.heap = h[:n]
	return at, fn, argFn, arg
}

// before reports whether a dispatches ahead of b: earlier time first,
// and scheduling order within one tick.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}
