package main

import "sort"

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// percentile returns the q-quantile of xs, interpolated linearly between
// the two nearest order statistics, and how many samples lie strictly above
// it. Interpolation matters here: op times cluster by op kind, and a
// nearest-rank quantile that falls on the boundary of two clusters jumps
// between them from run to run.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	v = s[i]
	if i+1 < len(s) {
		v += (pos - float64(i)) * (s[i+1] - s[i])
	}
	for _, x := range s {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}
