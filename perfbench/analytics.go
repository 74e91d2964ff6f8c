package main

// analytics_batch: library only, no HTTP. nproc goroutines call
// polyfit.Index in a closed loop on indexes built with polyfit.New: a fine
// COUNT index (tweet latitudes, εabs=1), a 4-shard SUM index and a MAX
// index (HKI ticks). A request is either a QueryBatch "histogram" of 64
// adjacent ranges (reported) or a QueryRel point query (point_*) whose
// eps_rel is tight enough that a measured share falls to the exact
// fallback; cpu_us_per_op is per range answered.

import (
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	polyfit "repro"
	"repro/internal/data"
	"repro/internal/oracle"
)

const (
	anaTweetKeys  = 1_000_000
	anaHKIKeys    = 300_000
	anaSumShards  = 4
	anaPointPool  = 8192
	anaHistograms = 512
	anaBins       = 64
	anaBatchShare = 0.25 // share of requests that are histograms
)

// anaRelEps is the QueryRel eps_rel per index (COUNT, SUM, MAX).
var anaRelEps = []float64{1e-5, 1e-4, 1e-2}

// histogram is one QueryBatch request with its referee answers.
type histogram struct {
	ix     int
	ranges []polyfit.Range
	want   []exact
}

// histograms splits seeded key intervals into anaBins adjacent ranges whose
// endpoints are keys, alternating between the COUNT and SUM indexes.
func histograms(ixs []*served, seed int64, procs int) []histogram {
	rng := rand.New(rand.NewSource(seed))
	hs := make([]histogram, anaHistograms)
	for i := range hs {
		s := ixs[i%2]
		a, b := rng.Intn(len(s.keys)), rng.Intn(len(s.keys))
		if a > b {
			a, b = b, a
		}
		for b-a < anaBins {
			b = min(len(s.keys)-1, b+anaBins)
			a = max(0, a-anaBins)
		}
		h := histogram{ix: i % 2, ranges: make([]polyfit.Range, anaBins), want: make([]exact, anaBins)}
		for j := 0; j < anaBins; j++ {
			h.ranges[j] = polyfit.Range{Lo: s.keys[a+(b-a)*j/anaBins], Hi: s.keys[a+(b-a)*(j+1)/anaBins]}
		}
		hs[i] = h
	}
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(hs); i += procs {
				h := &hs[i]
				for j, rg := range h.ranges {
					h.want[j] = exactOf(ixs[h.ix].o, ixs[h.ix].agg, rg.Lo, rg.Hi)
				}
			}
		}(w)
	}
	wg.Wait()
	return hs
}

func analyticsBatch(e env) (*run, error) {
	r := &run{metrics: map[string]float64{}}
	tweet := data.GenTweet(anaTweetKeys, e.seed)
	hk, hv := data.GenHKI(anaHKIKeys, e.seed+1)
	ixs := []*served{
		{name: "tweet_count_fine", agg: aggCount, keys: tweet, epsAbs: 1},
		{name: "hki_sum_sharded", agg: aggSum, keys: hk, meas: hv, epsAbs: 2e5, shards: anaSumShards},
		{name: "hki_max", agg: aggMax, keys: hk, meas: hv, epsAbs: 100},
	}
	for _, s := range ixs {
		o, err := oracle.New(s.keys, s.meas)
		if err != nil {
			return nil, err
		}
		s.o = o
	}
	pool := requestPool(ixs, anaPointPool, 1, anaRelEps, e.seed+10, e.procs)
	hists := histograms(ixs, e.seed+20, e.procs)
	r.note("inputs: fine COUNT %d keys (εabs=1), SUM %d keys in %d shards, MAX %d keys; %d QueryRel points (eps_rel %v), %d histograms of %d ranges; %.0f%% of requests are histograms; %d closed-loop goroutines",
		anaTweetKeys, anaHKIKeys, anaSumShards, anaHKIKeys, anaPointPool, anaRelEps, anaHistograms, anaBins, 100*anaBatchShare, e.procs)

	libs, err := setupMedian(r, func() ([]polyfit.Index, error) {
		libs := make([]polyfit.Index, len(ixs))
		for i, s := range ixs {
			ix, err := buildLib(s, e.procs)
			if err != nil {
				return nil, err
			}
			libs[i] = ix
		}
		return libs, nil
	}, func([]polyfit.Index) {})
	if err != nil {
		return nil, err
	}
	bytes, recs := 0, 0
	for _, ix := range libs {
		st := ix.Stats()
		bytes += st.IndexBytes + st.FallbackBytes
		recs += st.Records
		r.note("index: %v", st)
	}
	r.set("index_bytes_per_key", float64(bytes)/float64(recs))

	type tally struct {
		point, batch          []timed
		attempted, violations int64
	}
	// window runs the closed loop for d; with a tracer, every 64th call of
	// each goroutine is a span.
	window := func(d time.Duration, seedBase int64, tr *tracer) []tally {
		ts := make([]tally, e.procs)
		rngs := make([]*rand.Rand, e.procs)
		for w := range rngs {
			rngs[w] = rand.New(rand.NewSource(e.seed + seedBase + int64(w)))
		}
		start := time.Now()
		closedLoop(e.procs, d, func(w int, seq int64) {
			t, rng := &ts[w], rngs[w]
			// Calls take about a microsecond: span every 64th, so the trace
			// stays small and tracing does not dominate what it measures.
			tr := tr
			if seq%64 != 0 {
				tr = nil
			}
			t.attempted++
			if rng.Float64() < anaBatchShare {
				h := &hists[rng.Intn(len(hists))]
				t0 := time.Now()
				res, err := libs[h.ix].QueryBatch(h.ranges)
				t1 := time.Now()
				t.batch = append(t.batch, timed{t1.Sub(start), us(t1.Sub(t0))})
				if tr != nil {
					tr.add(span{name: "polyfit.QueryBatch", start: tr.since(t0), end: tr.since(t1)})
				}
				for j, want := range h.want {
					if err != nil || !answerOK(want, res[j].Value, res[j].Bound, res[j].Found) {
						t.violations++
						break
					}
				}
				return
			}
			rq := &pool[rng.Intn(len(pool))]
			t0 := time.Now()
			res, err := libs[rq.ix].QueryRel(polyfit.Range{Lo: rq.lo, Hi: rq.hi}, rq.epsRel)
			t1 := time.Now()
			t.point = append(t.point, timed{t1.Sub(start), us(t1.Sub(t0))})
			if tr != nil {
				tr.add(span{name: "polyfit.QueryRel", start: tr.since(t0), end: tr.since(t1)})
			}
			if err != nil || !answerOK(rq.want, res.Value, res.Bound, res.Found) {
				t.violations++
			}
		})
		return ts
	}
	collect := func(ts []tally, el time.Duration) (point, batch []timed, perS float64) {
		var completed []done
		for _, t := range ts {
			point = append(point, t.point...)
			batch = append(batch, t.batch...)
			for _, s := range t.point {
				completed = append(completed, done{s.at, 1})
			}
			for _, s := range t.batch {
				completed = append(completed, done{s.at, anaBins})
			}
			r.attempted += t.attempted
			r.failed += t.violations
			r.violations += t.violations
		}
		return point, batch, windowedRate(completed, el)
	}

	measureDur := e.dur
	if e.trace {
		measureDur = e.dur / 2
	}
	gc := startGC()
	t0 := time.Now()
	cw := startCPU()
	ts := window(measureDur, 1000, nil)
	el := time.Since(t0)
	cpu := cw.stop()
	gc.stop(r)
	point, batch, perS := collect(ts, el)
	if err := latencyMetrics(r, "point", point); err != nil {
		return nil, err
	}
	if err := latencyMetrics(r, "batch", batch); err != nil {
		return nil, err
	}
	cpuMetric(r, cpu, float64(len(point)+anaBins*len(batch)), "range answered (histogram ranges plus QueryRel points)")
	r.note("ranges_per_s: %.1f 1/s (histogram ranges plus QueryRel points; median over windows)", perS)

	if e.trace {
		tr := newTracer()
		t0 := time.Now()
		ts := window(e.dur/2, 2000, tr)
		tpoint, _, _ := collect(ts, time.Since(t0))
		overhead := median(durations(tpoint)) - median(durations(point))
		r.set("trace.overhead_us", overhead)
		r.note("tracing overhead (traced − untraced point_p50_us): %.3f us", overhead)
		path := filepath.Join(filepath.Dir(e.workdir), "trace-analytics_batch.tsv")
		if err := writeTrace(path, tr.spans, linkStats{}); err != nil {
			return nil, err
		}
		r.note("trace: %d spans written to %s (every 64th library call; no server, transport, cluster or persist layer on this path)", len(tr.spans), path)
		if err := libraryLayers(e, r, ixs, pool, anaRelEps); err != nil {
			return nil, err
		}
	}
	return r, nil
}
