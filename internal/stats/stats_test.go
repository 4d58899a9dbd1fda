package stats

import (
	"strings"
	"testing"
)

func TestSeries(t *testing.T) {
	s := NewSeries("test", "ports", "a", "b")
	s.Add(1, "", 10, 20)
	s.Add(2, "two", 30, 40)
	if v, ok := s.Get("two", "b"); !ok || v != 40 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	col := s.Column("a")
	if len(col) != 2 || col[0] != 10 || col[1] != 30 {
		t.Fatalf("Column = %v", col)
	}
}

func TestSeriesAddMismatchPanics(t *testing.T) {
	s := NewSeries("x", "x", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Add did not panic")
		}
	}()
	s.Add(1, "", 1, 2)
}

func TestRelativeBenefit(t *testing.T) {
	// The paper's own example: 30% vs 60% CPU -> 50% relative benefit.
	if got := RelativeBenefit(60, 30); got != 0.5 {
		t.Fatalf("relative benefit = %v, want 0.5", got)
	}
	if got := RelativeBenefit(0, 10); got != 0 {
		t.Fatalf("relative benefit with zero base = %v", got)
	}
}

func TestTable(t *testing.T) {
	s := NewSeries("Figure 3a", "Ports", "non-I/OAT Mbps", "I/OAT Mbps")
	s.Add(1, "", 941, 941)
	s.Add(6, "", 5514, 5586)
	out := s.Table()
	for _, want := range []string{"Figure 3a", "Ports", "non-I/OAT Mbps", "941", "5586"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		5514:   "5514",
		0.3821: "0.3821",
		37.25:  "37.25",
		123.45: "123.5",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Fatalf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
}
