package main

// serve_zipf: read-only HTTP point queries over loopback to one
// server.Server holding static COUNT (tweet latitudes) and SUM/MAX (HKI
// ticks) indexes, with the result cache on and smaller than the set of
// distinct ranges. Ranges are drawn Zipf-skewed from a large pool, a share
// of them carrying eps_rel. Phase 1 is an open loop at a fixed rate timed
// from each request's due time (reported); phase 2 is a closed loop with
// nproc clients (point_*, cpu_us_per_op).

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/oracle"
	"repro/internal/server"
)

const (
	serveTweetKeys  = 400_000
	serveHKIKeys    = 200_000
	servePool       = 48_000 // distinct (index, range, eps_rel) requests
	serveZipfS      = 1.1
	serveRelShare   = 0.25 // share of pool entries carrying eps_rel
	serveRelEps     = 0.01
	serveCacheBytes = 1 << 20 // holds roughly a tenth of the pool's bodies
	serveOpenRate   = 1000.0  // requests/s in phase 1
)

// served describes one index of a served workload.
type served struct {
	name    string
	agg     agg
	keys    []float64
	meas    []float64
	epsAbs  float64
	shards  int  // > 0: range-partitioned
	dynamic bool // insertable
	o       *oracle.Oracle
}

// request is one pool entry with its referee answer.
type request struct {
	ix     int // into the workload's index list
	lo, hi float64
	epsRel float64
	body   []byte
	want   exact
}

func serveIndexes(seed int64) ([]*served, error) {
	tweet := data.GenTweet(serveTweetKeys, seed)
	hk, hv := data.GenHKI(serveHKIKeys, seed+1)
	ixs := []*served{
		{name: "tweet_count", agg: aggCount, keys: tweet, epsAbs: 100},
		{name: "hki_sum", agg: aggSum, keys: hk, meas: hv, epsAbs: 2e5},
		{name: "hki_max", agg: aggMax, keys: hk, meas: hv, epsAbs: 100},
	}
	for _, s := range ixs {
		o, err := oracle.New(s.keys, s.meas)
		if err != nil {
			return nil, err
		}
		s.o = o
	}
	return ixs, nil
}

// requestPool draws n requests: half on the first index, the rest split
// over the others; relShare of them carry eps_rel relEps[index]. Referee
// answers are computed up front on procs goroutines.
func requestPool(ixs []*served, n int, relShare float64, relEps []float64, seed int64, procs int) []request {
	rng := rand.New(rand.NewSource(seed))
	ranges := make([][]data.RangeQuery, len(ixs))
	for i, s := range ixs {
		ranges[i] = data.RangeQueriesFromKeys(s.keys, n, seed+int64(i)+1)
	}
	pool := make([]request, n)
	for i := range pool {
		ix := 0
		if u := rng.Float64(); u >= 0.5 {
			ix = 1 + int((u-0.5)/0.5*float64(len(ixs)-1))
		}
		q := ranges[ix][i]
		rq := request{ix: ix, lo: q.L, hi: q.U}
		if rng.Float64() < relShare {
			rq.epsRel = relEps[ix]
			rq.body = fmt.Appendf(nil, `{"lo":%v,"hi":%v,"eps_rel":%v}`, q.L, q.U, rq.epsRel)
		} else {
			rq.body = fmt.Appendf(nil, `{"lo":%v,"hi":%v}`, q.L, q.U)
		}
		pool[i] = rq
	}
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += procs {
				rq := &pool[i]
				s := ixs[rq.ix]
				rq.want = exactOf(s.o, s.agg, rq.lo, rq.hi)
			}
		}(w)
	}
	wg.Wait()
	return pool
}

// zipfPicker draws pool positions Zipf-skewed over a seeded permutation,
// so the popular entries are spread across indexes and ranges.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(n int, s float64, perm []int, seed int64) *zipfPicker {
	r := rand.New(rand.NewSource(seed))
	return &zipfPicker{z: rand.NewZipf(r, s, 1, uint64(n-1)), perm: perm}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }

type serveNode struct {
	srv *server.Server
	ts  *httptest.Server
}

func (n serveNode) close() {
	n.ts.Close()
	n.srv.Close() //nolint:errcheck // in-memory server: nothing to flush
}

func serveZipf(e env) (*run, error) {
	r := &run{metrics: map[string]float64{}}
	ixs, err := serveIndexes(e.seed)
	if err != nil {
		return nil, err
	}
	relEps := []float64{serveRelEps, serveRelEps, serveRelEps}
	pool := requestPool(ixs, servePool, serveRelShare, relEps, e.seed+10, e.procs)
	perm := rand.New(rand.NewSource(e.seed + 20)).Perm(len(pool))
	r.note("inputs: tweet COUNT %d keys, HKI SUM+MAX %d keys; pool %d distinct requests, Zipf s=%g, %.0f%% with eps_rel=%g; cache %d B",
		serveTweetKeys, serveHKIKeys, servePool, serveZipfS, 100*serveRelShare, serveRelEps, serveCacheBytes)

	node, err := setupMedian(r, func() (serveNode, error) {
		srv, err := server.NewDurable(server.Config{CacheBytes: serveCacheBytes})
		if err != nil {
			return serveNode{}, err
		}
		for _, s := range ixs {
			if _, err := srv.Create(server.CreateRequest{Name: s.name, Agg: string(s.agg), Keys: s.keys, Measures: s.meas, EpsAbs: s.epsAbs}); err != nil {
				return serveNode{}, err
			}
		}
		return serveNode{srv, httptest.NewServer(e.tap.handler("server", srv))}, nil
	}, serveNode.close)
	if err != nil {
		return nil, err
	}
	defer node.close()
	client := newClient(e.tap, e.procs)
	urls := make([]string, len(ixs))
	for i, s := range ixs {
		urls[i] = node.ts.URL + "/v1/indexes/" + s.name + "/query"
	}

	var chk checker
	pickers := func(base int64) []*zipfPicker {
		ps := make([]*zipfPicker, e.procs)
		for i := range ps {
			ps[i] = newZipfPicker(len(pool), serveZipfS, perm, e.seed+base+int64(i))
		}
		return ps
	}
	// send issues one drawn request, checks the answer, and returns the
	// round trip's duration in µs.
	send := func(p *zipfPicker) float64 {
		rq := &pool[p.next()]
		t0 := time.Now()
		status, body, err := post(client, urls[rq.ix], rq.body)
		el := us(time.Since(t0))
		chk.check(rq, status, body, err)
		return el
	}
	// window runs both phases over d, a quarter open and the rest closed,
	// and returns the open-loop result, the closed-loop latencies, the
	// closed-loop request rate (median over windows) and the closed loop's
	// CPU use.
	window := func(d time.Duration, seedBase int64) (openResult, []timed, float64, cpuUse) {
		ps := pickers(seedBase)
		open := openLoop(serveOpenRate, d/4, e.procs, func(s int, _ int64) { send(ps[s]) })
		ps = pickers(seedBase + 100)
		lats := make([][]timed, e.procs)
		start := time.Now()
		cw := startCPU()
		elapsed := closedLoop(e.procs, d-d/4, func(w int, _ int64) {
			l := send(ps[w])
			lats[w] = append(lats[w], timed{time.Since(start), l})
		})
		cpu := cw.stop()
		var all []timed
		var completed []done
		for _, l := range lats {
			all = append(all, l...)
			for _, s := range l {
				completed = append(completed, done{s.at, 1})
			}
		}
		return open, all, windowedRate(completed, elapsed), cpu
	}

	measureDur := e.dur
	if e.trace {
		measureDur = e.dur / 2
	}
	gc := startGC()
	open, closed, qps, cpu := window(measureDur, 1000)
	gc.stop(r)
	if err := latencyMetrics(r, "point", closed); err != nil {
		return nil, err
	}
	if err := latencyMetrics(r, "open_loop", open.latency); err != nil {
		return nil, err
	}
	cpuMetric(r, cpu, float64(len(closed)), "closed-loop point query")
	late := newDist(open.lateness)
	r.note("open loop: %.0f req/s offered on %d connections, %d sent, timed from due time; generator lateness p50 %.1f us, p99 %.1f us",
		serveOpenRate, e.procs, len(open.latency), late.quantile(50), late.quantile(99))
	r.note("point_qps (closed loop, %d clients): %.1f 1/s", e.procs, qps)
	bytes, recs := 0, 0
	for _, s := range ixs {
		var st server.StatsResponse
		if err := getJSON(client, node.ts.URL+"/v1/indexes/"+s.name, &st); err != nil {
			return nil, err
		}
		bytes += st.IndexBytes + st.FallbackBytes
		recs += st.Records
	}
	r.set("index_bytes_per_key", float64(bytes)/float64(recs))

	if e.trace {
		if err := serveTraced(e, r, node, client, ixs, pool, perm, window, closed); err != nil {
			return nil, err
		}
		if err := libraryLayers(e, r, ixs, pool, relEps); err != nil {
			return nil, err
		}
	}
	chk.into(r)
	return r, nil
}

// serveTraced repeats the window with tracing on and derives the server
// and transport layer metrics from spans and /v1/stats deltas.
func serveTraced(e env, r *run, node serveNode, client *http.Client, ixs []*served, pool []request, perm []int,
	window func(time.Duration, int64) (openResult, []timed, float64, cpuUse), untraced []timed) error {
	var before, after server.ServerStats
	if err := getJSON(client, node.ts.URL+"/v1/stats", &before); err != nil {
		return err
	}
	tr := newTracer()
	e.tap.cur.Store(tr)
	_, traced, _, _ := window(e.dur/2, 2000)
	e.tap.cur.Store(nil)
	if err := getJSON(client, node.ts.URL+"/v1/stats", &after); err != nil {
		return err
	}
	overhead := median(durations(traced)) - median(durations(untraced))
	r.set("trace.overhead_us", overhead)
	r.note("tracing overhead (traced − untraced point_p50_us): %.2f us", overhead)

	spans := tr.spans
	ls := link(spans, func(string) bool { return false })
	kids := children(spans)
	var handler, transport []float64
	requests := int64(0)
	for _, s := range spans {
		switch s.name {
		case "server":
			handler = append(handler, float64(s.dur())/1e3)
		case "client":
			requests++
			transport = append(transport, float64(selfTime(s, kids[s.id]))/1e3)
		}
	}
	hd := newDist(handler)
	r.set("server.handler_us_p50", hd.quantile(50))
	r.set("server.handler_us_p99", hd.quantile(99))
	r.note("server handler span: %s", hd.describe("us"))
	r.set("transport.us_p50", newDist(transport).quantile(50))
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	executed := after.ExecutedQueries - before.ExecutedQueries
	r.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("server.coalesced_ratio", ratio(after.CoalescedQueries-before.CoalescedQueries, requests))
	r.set("server.batched_ratio", ratio(after.BatchedQueries-before.BatchedQueries, executed))
	r.set("server.executed_ratio", ratio(executed, requests))
	r.set("server.shed_ratio", ratio(after.ShedQueries-before.ShedQueries, requests))
	r.set("server.timed_out_ratio", ratio(after.TimedOutQueries-before.TimedOutQueries, requests))
	r.note("traced window: %d requests, cache hits %d misses %d, executed %d", requests, hits, misses, executed)
	var bodies [][]byte
	p := newZipfPicker(len(pool), serveZipfS, perm, e.seed+3000)
	for len(bodies) < 2000 {
		if rq := &pool[p.next()]; rq.ix == 0 {
			bodies = append(bodies, rq.body)
		}
	}
	r.set("server.handler_allocs_per_req", handlerAllocs(node.srv, "/v1/indexes/"+ixs[0].name+"/query", bodies))
	path := filepath.Join(filepath.Dir(e.workdir), "trace-serve_zipf.tsv")
	if err := writeTrace(path, spans, ls); err != nil {
		return err
	}
	r.note("trace: %d spans written to %s", len(spans), path)
	return nil
}

// handlerAllocs replays bodies through ServeHTTP on a recorder (no TCP)
// and returns heap allocations per request, less those of building the
// request and recorder themselves.
func handlerAllocs(h http.Handler, path string, bodies [][]byte) float64 {
	mallocs := func(serve bool) float64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		for _, body := range bodies {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			w := httptest.NewRecorder()
			if serve {
				h.ServeHTTP(w, req)
			}
		}
		runtime.ReadMemStats(&b)
		return float64(b.Mallocs - a.Mallocs)
	}
	mallocs(true) // warm the cache and pools
	return (mallocs(true) - mallocs(false)) / float64(len(bodies))
}
