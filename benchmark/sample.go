package main

import (
	"math"
	"sort"
	"time"
)

// summary is how every timing in this benchmark is reported: a median
// with its quartiles, the minimum and the sample count — never a bare
// mean of one run (the failure of the legacy BENCH_*.json rows).
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
}

// quartiles returns the three cut points of sorted the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so a
// spread computed here is the spread the acceptance driver computes.
// Fewer than two samples have no spread: all three are the sample.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	q1, q2, q3 := quartiles(s)
	return summary{N: len(s), Median: q2, Q1: q1, Q3: q3, Min: s[0]}
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return summarize(xs).Median }

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and whether it may be reported: a tail percentile is only
// meaningful when at least ten samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := min(max(int(math.Ceil(p/100*float64(n))), 1), n)
	return sorted[rank-1], n-rank >= 10
}

// reportable is percentile with "not reportable" folded to 0, the form
// the per-layer tail metrics are printed in.
func reportable(xs []float64, p float64) float64 {
	v, ok := percentile(sortedCopy(xs), p)
	if !ok {
		return 0
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sampleFor times fn repeatedly for about budget (at least minN calls,
// at most maxN) and returns each call's duration. It is the one timing
// loop behind every layer probe.
func sampleFor(budget time.Duration, minN, maxN int, fn func()) []time.Duration {
	var out []time.Duration
	deadline := time.Now().Add(budget)
	for len(out) < maxN {
		t0 := time.Now()
		fn()
		out = append(out, time.Since(t0))
		if len(out) >= minN && time.Now().After(deadline) {
			break
		}
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
