// Package stats holds the experiment tables the simulator reports
// through: labelled series of rows, one per paper figure, and their
// plain-text rendering for the benchmark harness.
package stats

import "fmt"

// Point is one labelled (x, y...) row of a Series.
type Point struct {
	X      float64
	Label  string
	Values map[string]float64
}

// Series collects experiment rows in insertion order; the benchmark
// harness renders one Series per paper figure.
type Series struct {
	Name    string
	XLabel  string
	Columns []string
	Points  []Point
}

// NewSeries returns an empty series with the given column set.
func NewSeries(name, xlabel string, columns ...string) *Series {
	return &Series{Name: name, XLabel: xlabel, Columns: columns}
}

// Add appends a row. Values are matched positionally to Columns.
func (s *Series) Add(x float64, label string, values ...float64) {
	if len(values) != len(s.Columns) {
		panic(fmt.Sprintf("stats: row has %d values, series %q has %d columns",
			len(values), s.Name, len(s.Columns)))
	}
	m := make(map[string]float64, len(values))
	for i, c := range s.Columns {
		m[c] = values[i]
	}
	s.Points = append(s.Points, Point{X: x, Label: label, Values: m})
}

// Column returns all values of one column in row order.
//
//ioatlint:allow deadapi — read by internal/bench's figure shape tests
func (s *Series) Column(col string) []float64 {
	out := make([]float64, 0, len(s.Points))
	for _, p := range s.Points {
		out = append(out, p.Values[col])
	}
	return out
}

// RelativeBenefit computes the paper's "relative CPU benefit" (b-a)/b for
// two columns of the same row: base b, accelerated a. Returns 0 when the
// base is 0.
func RelativeBenefit(base, accel float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - accel) / base
}
