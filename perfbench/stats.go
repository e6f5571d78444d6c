package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 needs at least 1000 samples, a median 20.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by nearest rank.
// It refuses to report a percentile with fewer than minTail samples
// beyond it, so a p99 is never read off a handful of requests.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n == 0 || n-1-idx < minTail {
		return 0, fmt.Errorf("p%g of %d samples has fewer than %d samples beyond it", 100*q, n, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[idx], nil
}

// median is the middle value of a small set of repeated measurements
// (set-up times), where the minTail rule does not apply.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timings reads percentiles, remembering the first one that could not
// be reported so the run can fail on it.
type timings struct {
	err error
}

func (t *timings) pct(xs []float64, q float64) float64 {
	v, err := percentile(xs, q)
	if err != nil && t.err == nil {
		t.err = err
	}
	return v
}
