package stats

// Get returns the value of column col at the row whose label is label.
func (s *Series) Get(label, col string) (float64, bool) {
	for _, p := range s.Points {
		if p.Label == label {
			v, ok := p.Values[col]
			return v, ok
		}
	}
	return 0, false
}
