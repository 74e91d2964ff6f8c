package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on a
// handful of outliers.
const minBeyond = 10

// dist is a sorted sample of one timing.
type dist struct{ s []float64 }

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{s}
}

func (d dist) n() int { return len(d.s) }

// rank is the nearest-rank position of percentile p (0 < p ≤ 100): the
// smallest index whose cumulative share reaches p.
func rank(n int, p float64) int {
	k := int(math.Ceil(p/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// quantile returns percentile p by nearest rank; 0 for an empty sample.
func (d dist) quantile(p float64) float64 {
	if len(d.s) == 0 {
		return 0
	}
	return d.s[rank(len(d.s), p)]
}

// tailLadder lists the candidate tail percentiles, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the highest percentile on the ladder that has at least
// minBeyond samples beyond it, and its value. ok is false when even the
// median lacks them.
func (d dist) tail() (p, v float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(d.n(), p) >= minBeyond {
			return p, d.quantile(p), true
		}
	}
	return 0, 0, false
}

// tailAt returns percentile p, or an error when fewer than minBeyond
// samples lie beyond it.
func (d dist) tailAt(p float64) (float64, error) {
	if b := beyond(d.n(), p); b < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of n=%d", p, minBeyond, b, d.n())
	}
	return d.quantile(p), nil
}

// describe renders the median, p99 and the highest qualifying percentile
// with the sample count, for the report.
func (d dist) describe(unit string) string {
	tp, tv, ok := d.tail()
	if !ok {
		return fmt.Sprintf("n=%d (too few samples for a tail)", d.n())
	}
	return fmt.Sprintf("p50 %.4g %s, p99 %.4g %s, p%g %.4g %s (n=%d)",
		d.quantile(50), unit, d.quantile(99), unit, tp, tv, unit, d.n())
}

func median(xs []float64) float64 { return newDist(xs).quantile(50) }

func ratio(num, den int64) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// timed is one latency sample with the moment it completed, as an offset
// from the start of its phase.
type timed struct {
	at  time.Duration
	lat float64
}

// windowed splits samples into consecutive windows of at least minN
// samples each (in completion order) and returns, for each percentile in
// ps, the median across windows of that window's percentile. A stall that
// hits one window moves one of the values the median is taken over, not
// the reported figure.
func windowed(samples []timed, minN int, ps ...float64) (meds []float64, windows int) {
	sort.Slice(samples, func(a, b int) bool { return samples[a].at < samples[b].at })
	per := make([][]float64, len(ps))
	for i := 0; i+minN <= len(samples); i += minN {
		end := i + minN
		if len(samples)-end < minN {
			end = len(samples) // the remainder joins the last window
		}
		w := make([]float64, 0, end-i)
		for _, s := range samples[i:end] {
			w = append(w, s.lat)
		}
		d := newDist(w)
		for k, p := range ps {
			per[k] = append(per[k], d.quantile(p))
		}
		windows++
		if end == len(samples) {
			break
		}
	}
	for _, v := range per {
		meds = append(meds, median(v))
	}
	return meds, windows
}

// done is work completed at a moment, as an offset from the start of its
// phase.
type done struct {
	at time.Duration
	n  float64
}

// windowedRate splits [0, elapsed) into ten equal windows and returns the
// median across them of the work completed per second, so a burst of
// stalls in one window moves one value, not the reported rate.
func windowedRate(events []done, elapsed time.Duration) float64 {
	const windows = 10
	w := elapsed / windows
	sums := make([]float64, windows)
	for _, e := range events {
		sums[min(int(e.at/w), windows-1)] += e.n
	}
	for i := range sums {
		sums[i] /= w.Seconds()
	}
	return median(sums)
}
