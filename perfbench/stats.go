package main

import "sort"

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantiles returns the n-1 cut points dividing xs into n groups,
// computed like Python's statistics.quantiles with the default
// "exclusive" method, which is how the benchmark's spread is judged.
// It needs at least two values.
func quantiles(xs []float64, n int) []float64 {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 || n < 1 {
		return nil
	}
	m := ld + 1
	out := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*n)
		out = append(out, (s[j-1]*(float64(n)-delta)+s[j]*delta)/float64(n))
	}
	return out
}

// spread is the distance between the first and third quartiles as a
// share of the median.
func spread(xs []float64) float64 {
	q := quantiles(xs, 4)
	if q == nil || q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / q[1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
