package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method of Python's statistics.quantiles).
// xs is not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minSamplesFor is the sample count that leaves at least ten samples
// beyond the q-quantile, so a reported tail is never one outlier.
func minSamplesFor(q float64) int {
	return int(math.Ceil(10/(1-q) - 1e-9))
}

// spread summarises one metric's per-repeat values: median and quartiles.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func spreadOf(xs []float64) spread {
	return spread{Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func durs(ds []time.Duration, scale func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = scale(d)
	}
	return out
}

// logHist is a fixed-memory wall-time histogram for per-tick samples (far
// too many to keep individually): buckets grow by 1 % from 1 ns, so a
// quantile read from it is within 1 % of the exact order statistic.
type logHist struct {
	counts []uint64
	n      uint64
}

const (
	logHistGrowth  = 1.01
	logHistBuckets = 2600 // 1.01^2600 ns ≈ 177 s
)

func newLogHist() *logHist { return &logHist{counts: make([]uint64, logHistBuckets)} }

func (h *logHist) add(ns float64) {
	i := 0
	if ns > 1 {
		i = int(math.Ceil(math.Log(ns) / math.Log(logHistGrowth)))
	}
	if i >= logHistBuckets {
		i = logHistBuckets - 1
	}
	h.counts[i]++
	h.n++
}

// quantile reports the upper bound of the bucket holding the q-quantile
// sample (nearest rank); NaN when empty.
func (h *logHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return math.Pow(logHistGrowth, float64(i))
		}
	}
	return math.Pow(logHistGrowth, logHistBuckets-1)
}
