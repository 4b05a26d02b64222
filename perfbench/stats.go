package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail quantile.
// A p99 therefore needs at least 1,000 samples and a p999 10,000; a
// quantile the sample cannot support is refused, never estimated.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs. Above the median it
// refuses a quantile with fewer than minBeyond samples beyond it.
func quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("quantile p%g of an empty sample", 100*q)
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if q > 0.5 && len(xs)-(rank+1) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, len(xs), len(xs)-(rank+1), minBeyond)
	}
	return xs[rank], nil
}

// median is quantile(xs, 0.5); it only fails on an empty sample.
func median(xs []float64) (float64, error) { return quantile(xs, 0.5) }

// mean is the arithmetic mean, 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timing is one latency sample reported as its median plus every
// standard tail quantile it supports, with the sample count.
type timing struct {
	P50       float64            `json:"p50"`
	Quantiles map[string]float64 `json:"quantiles"`
	N         int                `json:"n"`
	Unit      string             `json:"unit"`
}

// summarize reports xs as a timing; it fails only on an empty sample.
func summarize(xs []float64, unit string) (timing, error) {
	p50, err := median(xs)
	if err != nil {
		return timing{}, err
	}
	qs := map[string]float64{}
	for _, q := range []float64{0.9, 0.95, 0.99, 0.999, 0.9999} {
		if v, err := quantile(xs, q); err == nil {
			qs[fmt.Sprintf("p%g", 100*q)] = v
		}
	}
	return timing{P50: p50, Quantiles: qs, N: len(xs), Unit: unit}, nil
}

// ratio is a share reported with its base, so a reader can tell 0/0 from
// 0/10,000.
type ratio struct {
	Value float64 `json:"value"`
	Num   float64 `json:"num"`
	Base  float64 `json:"base"`
}

func newRatio(num, base float64) ratio {
	r := ratio{Num: num, Base: base}
	if base > 0 {
		r.Value = num / base
	}
	return r
}
