package main

import (
	"runtime"
	"sort"
	"time"
)

// samples is a set of durations summarized by nearest-rank percentiles.
type samples []time.Duration

func (s samples) n() int { return len(s) }

// pct returns the p-th percentile (nearest rank) in units of scale, or 0
// for an empty set.
func (s samples) pct(p float64, scale time.Duration) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	rank = min(max(rank, 0), len(sorted)-1)
	return float64(sorted[rank]) / float64(scale)
}

// sum returns the total duration.
func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// setupTimes runs build n times and returns the median wall time in seconds
// together with the last build's result, which the run goes on to use; the
// earlier ones are passed to discard. Each build starts from a collected
// heap, as the first one does, so no build pays for its predecessors'
// garbage.
func setupTimes[T any](n int, build func() (T, error), discard func(T)) (float64, T, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return 0, last, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < n-1 {
			discard(v)
		}
		last = v
	}
	return median(secs), last, nil
}
