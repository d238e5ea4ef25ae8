package main

import (
	"math"
	"sort"
	"time"
)

// dist is a sample of durations, kept in milliseconds.
type dist []float64

func (d *dist) add(t time.Duration) { *d = append(*d, float64(t)/float64(time.Millisecond)) }

// quantile returns the q-quantile by linear interpolation between order
// statistics (NaN for an empty sample). d keeps its order.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	d = append(dist(nil), d...)
	sort.Float64s(d)
	pos := q * float64(len(d)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(d)-1)
	return d[lo] + (pos-float64(lo))*(d[hi]-d[lo])
}

func (d dist) median() float64 { return d.quantile(0.5) }

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// windowedP99 splits d, in the order it was recorded, into windows
// consecutive stretches and returns the median of their 99th percentiles:
// a tail estimate one disturbed stretch of the run cannot move alone.
// Samples too few to fill every window with a hundred fall back to the
// plain 99th percentile.
func (d dist) windowedP99() float64 {
	if len(d) < 100*windows {
		return d.quantile(0.99)
	}
	var p99s []float64
	for w := 0; w < windows; w++ {
		p99s = append(p99s, d[w*len(d)/windows:(w+1)*len(d)/windows].quantile(0.99))
	}
	return medianOf(p99s)
}

// windows is how many stretches windowedP99 takes the median over.
const windows = 5

func ms(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }

func medianOf(vs []float64) float64 { return dist(append([]float64(nil), vs...)).median() }
