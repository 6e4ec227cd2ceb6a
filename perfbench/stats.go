package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above the tail figure: a
// tail resting on fewer is one outlier.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty slice). xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least minBeyond
// samples above it, that is the sample with exactly minBeyond larger
// ones, and a label naming the percentile, such as "p97.8". With no
// more than minBeyond samples it returns the maximum, labelled "max".
func tail(xs []float64) (label string, value float64) {
	n := len(xs)
	if n <= minBeyond {
		return "max", percentile(xs, 100)
	}
	s := sortedCopy(xs)
	return fmt.Sprintf("p%.3g", 100*float64(n-minBeyond)/float64(n)), s[n-minBeyond-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
