package main

// Library-level layer metrics: the workload's own indexes are rebuilt
// identically and its own requests replayed through the public functions
// of polyfit, core, kca and segment, each call timed from outside.

import (
	"time"

	polyfit "repro"
	"repro/internal/core"
	"repro/internal/segment"
)

// coreAgg maps the server's aggregate names to the library's.
func coreAgg(a agg) polyfit.Agg {
	switch a {
	case aggCount:
		return polyfit.Count
	case aggSum:
		return polyfit.Sum
	default:
		return polyfit.Max
	}
}

// buildLib builds s the way the workload does.
func buildLib(s *served, procs int) (polyfit.Index, error) {
	opts := []polyfit.Option{polyfit.WithMaxError(s.epsAbs), polyfit.WithParallelism(procs)}
	if s.shards > 0 {
		opts = append(opts, polyfit.WithShards(s.shards))
	}
	if s.dynamic {
		opts = append(opts, polyfit.WithDynamic())
	}
	return polyfit.New(polyfit.Spec{Agg: coreAgg(s.agg), Keys: s.keys, Measures: s.meas}, opts...)
}

// fallbackPerKey is the exact-fallback (kca) bytes per record over the
// COUNT/SUM indexes.
func fallbackPerKey(libs []polyfit.Index) float64 {
	bytes, recs := 0, 0
	for _, ix := range libs {
		st := ix.Stats()
		if st.Aggregate == polyfit.Count || st.Aggregate == polyfit.Sum {
			bytes += st.FallbackBytes
			recs += st.Records
		}
	}
	return float64(bytes) / float64(recs)
}

// libraryLayers rebuilds ixs, replays pool (QueryRel uses each entry's
// eps_rel, or relEps[ix] when it has none) and records the polyfit, core,
// kca and segment metrics. Every replayed answer is refereed too.
func libraryLayers(e env, r *run, ixs []*served, pool []request, relEps []float64) error {
	libs := make([]polyfit.Index, len(ixs))
	buildS := 0.0
	for i, s := range ixs {
		t0 := time.Now()
		ix, err := buildLib(s, e.procs)
		if err != nil {
			return err
		}
		buildS += time.Since(t0).Seconds()
		libs[i] = ix
	}
	r.set("polyfit.build_s", buildS)
	r.set("kca.bytes_per_key", fallbackPerKey(libs))

	// Query: per-call cost from blocks of 64 calls.
	const block = 64
	var blocks []float64
	for i := 0; i+block <= len(pool); i += block {
		t0 := time.Now()
		for _, rq := range pool[i : i+block] {
			res, err := libs[rq.ix].Query(polyfit.Range{Lo: rq.lo, Hi: rq.hi})
			if err != nil || !answerOK(rq.want, res.Value, res.Bound, res.Found) {
				r.violations++
			}
		}
		blocks = append(blocks, float64(time.Since(t0).Nanoseconds())/block)
	}
	r.set("polyfit.query_ns_p50", median(blocks))

	// QueryRel: per call, split by whether the exact fallback answered.
	var rel, exactNS []float64
	exactN := 0
	for _, rq := range pool {
		eps := rq.epsRel
		if eps == 0 {
			eps = relEps[rq.ix]
		}
		t0 := time.Now()
		res, err := libs[rq.ix].QueryRel(polyfit.Range{Lo: rq.lo, Hi: rq.hi}, eps)
		ns := float64(time.Since(t0).Nanoseconds())
		if err != nil || !answerOK(rq.want, res.Value, res.Bound, res.Found) {
			r.violations++
		}
		rel = append(rel, ns)
		if res.Exact {
			exactN++
			if a := ixs[rq.ix].agg; a == aggCount || a == aggSum {
				exactNS = append(exactNS, ns)
			}
		}
	}
	rd := newDist(rel)
	r.set("polyfit.queryrel_ns_p50", rd.quantile(50))
	r.set("polyfit.queryrel_ns_p99", rd.quantile(99))
	r.set("polyfit.exact_ratio", float64(exactN)/float64(len(pool)))
	r.set("kca.exact_ns_p50", median(exactNS))
	r.note("polyfit QueryRel replay: %s; %d of %d answered exact", rd.describe("ns"), exactN, len(pool))

	// QueryBatch: the pool's ranges grouped by index in batches of 64.
	byIx := make([][]request, len(ixs))
	for _, rq := range pool {
		byIx[rq.ix] = append(byIx[rq.ix], rq)
	}
	var batchNS float64
	ranges := 0
	for i, rqs := range byIx {
		for j := 0; j+block <= len(rqs); j += block {
			rs := make([]polyfit.Range, block)
			for k, rq := range rqs[j : j+block] {
				rs[k] = polyfit.Range{Lo: rq.lo, Hi: rq.hi}
			}
			t0 := time.Now()
			res, err := libs[i].QueryBatch(rs)
			batchNS += float64(time.Since(t0).Nanoseconds())
			ranges += block
			for k, rq := range rqs[j : j+block] {
				if err != nil || !answerOK(rq.want, res[k].Value, res[k].Bound, res[k].Found) {
					r.violations++
				}
			}
		}
	}
	r.set("polyfit.batch_ns_per_range", batchNS/float64(ranges))

	// core and segment, on the first (COUNT) index.
	s := ixs[0]
	delta := core.DeltaForAbs(core.Count, s.epsAbs)
	cix, err := core.Build(core.Count, s.keys, nil, core.Options{Delta: delta, Parallelism: e.procs})
	if err != nil {
		return err
	}
	var loc []float64
	const locBlock = 256
	for i := 0; i+locBlock <= len(pool); i += locBlock {
		t0 := time.Now()
		for _, rq := range pool[i : i+locBlock] {
			cix.Locate(rq.hi)
		}
		loc = append(loc, float64(time.Since(t0).Nanoseconds())/locBlock)
	}
	r.set("core.locate_ns", median(loc))
	r.set("core.segments", float64(cix.NumSegments()))
	r.set("core.coeff_bytes_per_key", float64(cix.CoeffSizeBytes())/float64(cix.Len()))
	r.set("core.root_bytes", float64(cix.RootSizeBytes()))
	cf := make([]float64, len(s.keys))
	for i := range cf {
		cf[i] = float64(i + 1)
	}
	t0 := time.Now()
	if _, err := segment.Greedy(s.keys, cf, segment.Config{Degree: 2, Delta: delta, Parallelism: e.procs}); err != nil {
		return err
	}
	r.set("segment.greedy_s", time.Since(t0).Seconds())
	return nil
}
