package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuantilesMatchPython(t *testing.T) {
	cases := []struct {
		xs        []float64
		quartiles []float64
		median    float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{1, 2, 3, 4}, []float64{1.25, 2.5, 3.75}, 2.5},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}, 2},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.05, 0.95, 1.2, 0.8, 1.0}, []float64{0.875, 1.0, 1.125}, 1.0},
		{[]float64{5, 5}, []float64{5, 5, 5}, 5},
	}
	for _, c := range cases {
		in := slices.Clone(c.xs)
		q := quantiles(c.xs, 4)
		if len(q) != 3 {
			t.Fatalf("quantiles(%v) = %v, want 3 cut points", c.xs, q)
		}
		for i := range q {
			if math.Abs(q[i]-c.quartiles[i]) > 1e-12 {
				t.Errorf("quantiles(%v) = %v, want %v", c.xs, q, c.quartiles)
			}
		}
		if m := median(c.xs); m != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.median)
		}
		if !slices.Equal(in, c.xs) {
			t.Errorf("input reordered: %v", c.xs)
		}
	}
	if q := quantiles([]float64{1}, 4); q != nil {
		t.Errorf("quantiles of one value = %v, want nil", q)
	}
	if s := spread([]float64{0.9, 1.1, 1.0, 1.3, 0.7, 1.05, 0.95, 1.2, 0.8, 1.0}); math.Abs(s-0.25) > 1e-12 {
		t.Errorf("spread = %v, want 0.25", s)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(30)},
		// b and c overlap: the covered union is [40, 70].
		{Name: "b", Parent: 0, Start: ms(40), End: ms(60)},
		{Name: "c", Parent: 0, Start: ms(50), End: ms(70)},
		// d sticks out of its parent: only [90, 100] is covered.
		{Name: "d", Parent: 0, Start: ms(90), End: ms(120)},
		// a grandchild covers part of a, not of root.
		{Name: "leaf", Parent: 1, Start: ms(12), End: ms(20)},
		// A second root of the same name adds up.
		{Name: "a", Parent: -1, Start: ms(200), End: ms(205)},
	}
	busy, self := busyAndSelf(spans)
	want := map[string][2]time.Duration{
		"root": {ms(100), ms(100 - 20 - 30 - 10)},
		"a":    {ms(25), ms(20 - 8 + 5)},
		"b":    {ms(20), ms(20)},
		"c":    {ms(20), ms(20)},
		"d":    {ms(30), ms(30)},
		"leaf": {ms(8), ms(8)},
	}
	for name, w := range want {
		if busy[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: busy %v self %v, want %v %v", name, busy[name], self[name], w[0], w[1])
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.begin("x", 1, -1)
	tr.end(s)
	if s != -1 {
		t.Fatalf("nil tracer returned span %d", s)
	}
	tr = newTracer()
	root := tr.begin("root", 7, -1)
	child := tr.begin("child", 7, root)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].Parent != root || tr.spans[root].End < tr.spans[child].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestDigestBitExact(t *testing.T) {
	type rec struct {
		F float64
		s []int
		m map[string]float64
		p *rec
	}
	a := rec{F: 1, s: []int{1, 2}, m: map[string]float64{"x": 1, "y": 2, "z": 3}}
	b := rec{F: 1, s: []int{1, 2}, m: map[string]float64{"z": 3, "y": 2, "x": 1}}
	if digest(a) != digest(b) {
		t.Error("equal values digest differently")
	}
	b.F = math.Nextafter(1, 2)
	if digest(a) == digest(b) {
		t.Error("a one-ulp float change is not detected")
	}
	b = a
	b.p = &rec{s: []int{1}}
	if digest(a) == digest(b) {
		t.Error("a change behind a pointer is not detected")
	}
	b = a
	b.s = []int{1, 2, 0}
	if digest(a) == digest(b) {
		t.Error("a longer slice is not detected")
	}
	if digest(math.NaN()) != digest(math.NaN()) {
		t.Error("NaN must digest by its bits")
	}
}
