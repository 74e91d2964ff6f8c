package main

// ingest_routed: writes beside reads through the replicated tier. A durable
// leader (WAL fsynced before every insert is acknowledged; the server's
// default background snapshotter, every 15 s) runs with
// one WAL-streaming follower behind cluster.Router. For the first two thirds
// of the window a single writer sends insert batches through the router in a
// closed loop (cpu_us_per_op) while an open loop at a fixed rate sends
// COUNT/SUM reads through the router with max_staleness_ms (reported); in
// the last third the writer has stopped and nproc clients read through the
// router in a closed loop (point_*). After the window the data dir is copied
// while the leader still runs and a fresh server is recovered from the copy.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/oracle"
	"repro/internal/persist"
	"repro/internal/server"
)

const (
	ingCountBase  = 50_000
	ingCountPool  = 400_000 // insert keys available to the writer
	ingSumBase    = 25_000
	ingSumPool    = 400_000
	ingBatch      = 4 // records per insert request
	ingReadRate   = 200.0
	ingReadPool   = 4096
	ingMaxStaleMS = 500
	ingCacheBytes = serveCacheBytes
)

// ingestIndex is one dynamic index of the workload with the writer's
// planned insert sequence.
type ingestIndex struct {
	*served
	ins   insertLog
	next  int          // start of the writer's next batch: every insert before it is answered
	sent  atomic.Int64 // inserts sent (request started)
	acked atomic.Int64 // inserts acknowledged: durable, or found applied by a retry
	mu    sync.Mutex
	reads []staleRead
}

// splitSeeded moves a seeded random share of (keys, meas) into an insert
// sequence in random order; the rest stays as the sorted base.
func splitSeeded(keys, meas []float64, base int, seed int64) (bk, bm []float64, ins insertLog) {
	perm := rand.New(rand.NewSource(seed)).Perm(len(keys))
	inBase := make([]bool, len(keys))
	for _, i := range perm[:base] {
		inBase[i] = true
	}
	for i, k := range keys {
		if inBase[i] {
			bk = append(bk, k)
			if meas != nil {
				bm = append(bm, meas[i])
			}
		}
	}
	for _, i := range perm[base:] {
		ins.keys = append(ins.keys, keys[i])
		m := 1.0 // COUNT: every insert adds one
		if meas != nil {
			m = meas[i]
		}
		ins.measures = append(ins.measures, m)
	}
	return bk, bm, ins
}

type tier struct {
	dir              string
	leader, follower *server.Server
	router           *cluster.Router
	lts, fts, rts    *httptest.Server
}

func (t *tier) close() {
	t.rts.Close()
	t.router.Close()
	t.fts.Close()
	t.follower.Close() //nolint:errcheck // in-memory replica
	t.lts.Close()
	t.leader.Close() //nolint:errcheck // best effort: the measured state was already copied
}

func ingestRouted(e env) (*run, error) {
	r := &run{metrics: map[string]float64{}}
	ck := data.GenTweet(ingCountBase+ingCountPool, e.seed)
	hk, hv := data.GenHKI(ingSumBase+ingSumPool, e.seed+1)
	var ixs []*ingestIndex
	for _, spec := range []struct {
		name       string
		a          agg
		keys, meas []float64
		base       int
		epsAbs     float64
	}{
		{"tweet_count", aggCount, ck, nil, ingCountBase, 100},
		{"hki_sum", aggSum, hk, hv, ingSumBase, 2e5},
	} {
		bk, bm, ins := splitSeeded(spec.keys, spec.meas, spec.base, e.seed+int64(len(ixs))+5)
		o, err := oracle.New(bk, bm)
		if err != nil {
			return nil, err
		}
		ixs = append(ixs, &ingestIndex{served: &served{name: spec.name, agg: spec.a, keys: bk, meas: bm,
			epsAbs: spec.epsAbs, dynamic: true, o: o}, ins: ins})
	}
	sv := []*served{ixs[0].served, ixs[1].served}
	pool := requestPool(sv, ingReadPool, 0, nil, e.seed+10, e.procs)
	for i := range pool {
		pool[i].body = fmt.Appendf(nil, `{"lo":%v,"hi":%v,"max_staleness_ms":%d}`, pool[i].lo, pool[i].hi, ingMaxStaleMS)
	}
	readers := max(1, e.procs-1)
	r.note("inputs: dynamic COUNT %d base keys + %d insert pool, dynamic SUM %d + %d; %d-record insert batches from 1 writer; reads %.0f/s open loop on %d connection(s), pool %d, max_staleness_ms=%d",
		ingCountBase, ingCountPool, ingSumBase, ingSumPool, ingBatch, ingReadRate, readers, ingReadPool, ingMaxStaleMS)
	r.note("flush policy: WAL fsync per insert request before the acknowledgement; the server's default background snapshotter (every 15 s), plus snapshots on create, rebuild and close")

	n := 0
	t, err := setupMedian(r, func() (*tier, error) {
		n++
		return startTier(e, filepath.Join(e.workdir, fmt.Sprintf("leader-%d", n)), ixs)
	}, func(t *tier) {
		t.close()
		os.RemoveAll(t.dir) //nolint:errcheck // scratch
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			t.close()
		}
	}()
	client := newClient(e.tap, e.procs)
	var chk checker
	var inserts []timed // per-batch latency, µs
	var acks []done     // acknowledged records
	var insertEl time.Duration
	var exhausted atomic.Bool

	// window runs the writer and the reads together for d.
	window := func(d time.Duration, seedBase int64) openResult {
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			for k := 0; time.Now().Before(deadline); k++ {
				ix := ixs[k%2]
				from := ix.next
				to := min(from+ingBatch, len(ix.ins.keys))
				if from == to {
					exhausted.Store(true)
					break
				}
				var b strings.Builder
				b.WriteString(`{"records":[`)
				for i := from; i < to; i++ {
					if i > from {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, `{"key":%v,"measure":%v}`, ix.ins.keys[i], ix.ins.measures[i])
				}
				b.WriteString(`]}`)
				// A failed request is retried with the same records until it
				// is answered, and a batch still unanswered at the deadline
				// is the next window's first: the applied inserts stay a
				// prefix of the sequence. A retry that finds its records
				// already applied (rejected as duplicates) still
				// acknowledges them.
				for time.Now().Before(deadline) {
					ix.sent.Store(int64(to))
					t1 := time.Now()
					status, body, err := post(client, t.rts.URL+"/v1/indexes/"+ix.name+"/insert", []byte(b.String()))
					inserts = append(inserts, timed{time.Since(t0), us(time.Since(t1))})
					chk.attempted.Add(1)
					if err != nil || status != http.StatusOK {
						chk.failHTTP("insert", status, err)
						time.Sleep(time.Millisecond)
						continue
					}
					var ir server.InsertResponse
					if json.Unmarshal(body, &ir) != nil || ir.Inserted+ir.Rejected != to-from || (ir.Inserted > 0 && !ir.Durable) {
						chk.fail(fmt.Sprintf("insert: %d of %d inserted, durable %v", ir.Inserted, to-from, ir.Durable))
						ix.next = to
						break
					}
					ix.next = to
					ix.acked.Add(int64(to - from))
					acks = append(acks, done{time.Since(t0), float64(to - from)})
					break
				}
			}
			insertEl += time.Since(t0)
		}()
		rng := make([]*rand.Rand, readers)
		for i := range rng {
			rng[i] = rand.New(rand.NewSource(e.seed + seedBase + int64(i)))
		}
		open := openLoop(ingReadRate, d, readers, func(s int, _ int64) {
			rq := &pool[rng[s].Intn(len(pool))]
			ix := ixs[rq.ix]
			status, body, err := post(client, t.rts.URL+"/v1/indexes/"+ix.name+"/query", rq.body)
			sent := int(ix.sent.Load())
			chk.attempted.Add(1)
			if err != nil || status != http.StatusOK {
				chk.failHTTP("read", status, err)
				return
			}
			var qr server.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				chk.fail("read: undecodable body")
				return
			}
			ix.mu.Lock()
			ix.reads = append(ix.reads, staleRead{lo: rq.lo, hi: rq.hi, base: rq.want.value, value: qr.Value, bound: qr.Bound, sent: sent})
			ix.mu.Unlock()
		})
		wg.Wait()
		return open
	}

	measureDur := e.dur
	if e.trace {
		measureDur = e.dur / 2
	}
	gc := startGC()
	cw := startCPU()
	open := window(measureDur*2/3, 1000)
	cpu := cw.stop()
	routed := routedReads(t, client, e.procs, measureDur-measureDur*2/3, ixs, pool, e.seed+3000)
	gc.stop(r)
	if err := latencyMetrics(r, "point", routed.lat); err != nil {
		return nil, err
	}
	r.note("read_during_ingest latency (open loop, from due time): %s", newDist(durations(open.latency)).describe("us"))
	acked := int64(0)
	for _, ix := range ixs {
		acked += ix.acked.Load()
	}
	cpuMetric(r, cpu, float64(acked), "acknowledged insert record (the reads beside the writes included)")
	r.note("insert_records_per_s: %.1f 1/s (median over windows), %.1f 1/s overall",
		windowedRate(acks, insertEl), float64(acked)/insertEl.Seconds())
	late := newDist(open.lateness)
	r.note("read open loop: %.0f req/s offered, %d sent; generator lateness p50 %.1f us, p99 %.1f us",
		ingReadRate, len(open.latency), late.quantile(50), late.quantile(99))
	if e.trace {
		if err := ingestTraced(e, r, t, client, ixs, pool, window, open.latency); err != nil {
			return nil, err
		}
	}
	if err := latencyMetrics(r, "insert", inserts); err != nil {
		return nil, err
	}
	if exhausted.Load() {
		r.note("an insert pool ran out before the window ended: the writer idled")
	}
	for _, ix := range ixs {
		r.note("%s: %d of %d pool inserts sent, %d acknowledged", ix.name, ix.sent.Load(), len(ix.ins.keys), ix.acked.Load())
	}

	// Referee every read against base + some prefix of the insert sequence.
	// The routed reads came after the writer stopped and repeat pool
	// entries, so each distinct answer is checked once.
	t0 := time.Now()
	nreads := 0
	for _, ix := range ixs {
		bad := checkStale(ix.ins, ix.reads)
		for i := 0; i < bad; i++ {
			chk.fail("read: answer outside its bound of every sent prefix")
		}
		chk.violations.Add(int64(bad))
		nreads += len(ix.reads)
	}
	for i, ix := range ixs {
		for rd, n := range routed.answers[i] {
			if checkStale(ix.ins, []staleRead{rd}) > 0 {
				for k := 0; k < n; k++ {
					chk.fail("routed read: answer outside its bound of every sent prefix")
				}
				chk.violations.Add(int64(n))
			}
			nreads += n
		}
	}
	chk.attempted.Add(routed.attempted)
	for _, err := range routed.errs {
		chk.fail("routed read: " + err)
	}
	r.note("staleness referee: %d reads checked in %.3f s", nreads, time.Since(t0).Seconds())

	// Copy the data dir while the leader runs (the writer has stopped).
	disk, err := dirBytes(t.dir)
	if err != nil {
		return nil, err
	}
	cp := filepath.Join(e.workdir, "copy")
	if err := copyDir(t.dir, cp); err != nil {
		return nil, err
	}
	// Structure, after merging each insert buffer so the figure does not
	// depend on how full the buffer happened to be when the window ended.
	bytes, recs := 0, 0
	for _, ix := range ixs {
		if status, body, err := post(client, t.lts.URL+"/v1/indexes/"+ix.name+"/rebuild", nil); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("rebuild %s: status %d %s: %v", ix.name, status, body, err)
		}
		var st server.StatsResponse
		if err := getJSON(client, t.lts.URL+"/v1/indexes/"+ix.name, &st); err != nil {
			return nil, err
		}
		bytes += st.IndexBytes + st.FallbackBytes
		recs += st.Records
	}
	r.set("index_bytes_per_key", float64(bytes)/float64(recs))
	var ls server.ServerStats
	if err := getJSON(client, t.lts.URL+"/v1/stats", &ls); err != nil {
		return nil, err
	}
	r.set("persist.snapshots_written", float64(ls.SnapshotsWritten))
	r.note("leader snapshots written from its start through the merge after the window: %d", ls.SnapshotsWritten)
	r.note("disk_bytes_per_key: %.2f B/key (%d bytes for %d live records)", float64(disk)/float64(recs), disk, recs)
	t.close()
	closed = true
	if e.trace {
		if err := libraryRecover(r, cp, ixs[0].name); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	rs, err := server.NewDurable(server.Config{DataDir: cp, SnapshotInterval: -1})
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	r.note("recover_s: %.4f s (server.NewDurable on the copied data dir)", time.Since(t0).Seconds())
	lost, bad := checkRecovered(rs, ixs, pool)
	rs.Close() //nolint:errcheck // the copy is scratch
	r.lost += lost
	for i := int64(0); i < bad; i++ {
		chk.fail("recovered answer outside its bound")
	}
	chk.violations.Add(bad)
	r.note("recovery: %d acknowledged inserts missing, %d of %d range answers outside their bound", lost, bad, 2*ingRecoverChecks)
	chk.into(r)
	return r, nil
}

// routedResult holds the routed read phase's latencies and answers.
type routedResult struct {
	lat       []timed
	answers   []map[staleRead]int // per index: distinct answer → times given
	attempted int64
	errs      []string
}

// routedReads runs a closed loop of conns clients reading pool entries
// through the router for d, after the writer has stopped: the read path
// over indexes holding the window's inserts, with nothing else running.
func routedReads(t *tier, client *http.Client, conns int, d time.Duration, ixs []*ingestIndex, pool []request, seed int64) routedResult {
	type worker struct {
		lat     []timed
		answers []map[staleRead]int
		errs    []string
	}
	ws := make([]worker, conns)
	rngs := make([]*rand.Rand, conns)
	for w := range ws {
		rngs[w] = rand.New(rand.NewSource(seed + int64(w)))
		for range ixs {
			ws[w].answers = append(ws[w].answers, map[staleRead]int{})
		}
	}
	start := time.Now()
	closedLoop(conns, d, func(w int, _ int64) {
		rq := &pool[rngs[w].Intn(len(pool))]
		ix := ixs[rq.ix]
		t0 := time.Now()
		status, body, err := post(client, t.rts.URL+"/v1/indexes/"+ix.name+"/query", rq.body)
		now := time.Now()
		ws[w].lat = append(ws[w].lat, timed{now.Sub(start), us(now.Sub(t0))})
		var qr server.QueryResponse
		switch {
		case err != nil || status != http.StatusOK:
			ws[w].errs = append(ws[w].errs, fmt.Sprintf("status %d, %v", status, err))
		case json.Unmarshal(body, &qr) != nil:
			ws[w].errs = append(ws[w].errs, "undecodable body")
		default:
			rd := staleRead{lo: rq.lo, hi: rq.hi, base: rq.want.value, value: qr.Value, bound: qr.Bound, sent: int(ix.sent.Load())}
			ws[w].answers[rq.ix][rd]++
		}
	})
	out := routedResult{answers: make([]map[staleRead]int, len(ixs))}
	for i := range out.answers {
		out.answers[i] = map[staleRead]int{}
	}
	for _, wk := range ws {
		out.lat = append(out.lat, wk.lat...)
		out.attempted += int64(len(wk.lat))
		out.errs = append(out.errs, wk.errs...)
		for i, m := range wk.answers {
			for rd, n := range m {
				out.answers[i][rd] += n
			}
		}
	}
	return out
}

// startTier brings up leader, follower and router, and waits for the
// follower to join.
func startTier(e env, dir string, ixs []*ingestIndex) (*tier, error) {
	t := &tier{dir: dir}
	var err error
	t.leader, err = server.NewDurable(server.Config{DataDir: dir, CacheBytes: ingCacheBytes})
	if err != nil {
		return nil, err
	}
	for _, ix := range ixs {
		ix.next = 0
		ix.sent.Store(0)
		ix.acked.Store(0)
		if _, err := t.leader.Create(server.CreateRequest{Name: ix.name, Agg: string(ix.agg), Dynamic: true,
			Keys: ix.keys, Measures: ix.meas, EpsAbs: ix.epsAbs}); err != nil {
			return nil, err
		}
	}
	t.lts = httptest.NewServer(e.tap.handler("leader", t.leader))
	t.follower, err = server.NewDurable(server.Config{Join: t.lts.URL, SnapshotInterval: -1, CacheBytes: ingCacheBytes})
	if err != nil {
		return nil, err
	}
	t.fts = httptest.NewServer(e.tap.handler("follower", t.follower))
	probe := &http.Client{Timeout: 5 * time.Second}
	for deadline := time.Now().Add(30 * time.Second); ; {
		var st server.ServerStats
		if err := getJSON(probe, t.fts.URL+"/v1/stats", &st); err == nil && len(st.AckWatermark) == len(ixs) {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower never joined")
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.router, err = cluster.NewRouter(cluster.RouterConfig{Replicas: []string{t.lts.URL, t.fts.URL}})
	if err != nil {
		return nil, err
	}
	t.rts = httptest.NewServer(e.tap.handler("router", t.router))
	return t, nil
}

// ingRecoverChecks is how many ranges per index are refereed after recovery.
const ingRecoverChecks = 256

// checkRecovered verifies the recovered server holds every acknowledged
// insert: its record count must cover base + acknowledged, and sampled
// ranges must answer within bound of the exact value over exactly the
// records it holds, which must be a prefix of the writer's sequence.
func checkRecovered(rs *server.Server, ixs []*ingestIndex, pool []request) (lost, bad int64) {
	for i, ix := range ixs {
		rec := httptest.NewRecorder()
		rs.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/indexes/"+ix.name, nil))
		var st server.StatsResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
			lost += ix.acked.Load()
			continue
		}
		held := st.Records - len(ix.keys)
		if miss := ix.acked.Load() - int64(held); miss > 0 {
			lost += miss
		}
		held = max(0, min(held, len(ix.ins.keys)))
		keys := append(append([]float64(nil), ix.keys...), ix.ins.keys[:held]...)
		var meas []float64
		if ix.meas != nil {
			meas = append(append([]float64(nil), ix.meas...), ix.ins.measures[:held]...)
		}
		sortPairs(keys, meas)
		o, err := oracle.New(keys, meas)
		if err != nil {
			bad += ingRecoverChecks
			continue
		}
		checked := 0
		for _, rq := range pool {
			if rq.ix != i || checked == ingRecoverChecks {
				continue
			}
			checked++
			rec := httptest.NewRecorder()
			rs.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/indexes/"+ix.name+"/query",
				strings.NewReader(fmt.Sprintf(`{"lo":%v,"hi":%v}`, rq.lo, rq.hi))))
			var qr server.QueryResponse
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &qr) != nil ||
				!answerOK(exactOf(o, ix.agg, rq.lo, rq.hi), qr.Value, qr.Bound, qr.Found) {
				bad++
			}
		}
	}
	return lost, bad
}

// sortPairs sorts keys ascending, carrying meas (if any) along.
func sortPairs(keys, meas []float64) {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	k2 := make([]float64, len(keys))
	for i, j := range idx {
		k2[i] = keys[j]
	}
	copy(keys, k2)
	if meas != nil {
		m2 := make([]float64, len(meas))
		for i, j := range idx {
			m2[i] = meas[j]
		}
		copy(meas, m2)
	}
}

// libraryRecover times the persist + core recovery path for one index on
// the copied data dir: Store.ReadSnapshot, core.RestoreDynamic and WAL
// replay. As in the server's recovery, a logged insert the snapshot
// already holds (the log is truncated only once the follower has it) is
// skipped.
func libraryRecover(r *run, dir, name string) error {
	t0 := time.Now()
	st, err := persist.Open(dir)
	if err != nil {
		return err
	}
	blob, err := st.ReadSnapshot(name)
	if err != nil {
		return err
	}
	d, err := core.RestoreDynamic(blob)
	if err != nil {
		return err
	}
	w, recs, _, err := st.OpenWAL(st.WALPath(name))
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := d.Insert(rec.Key, rec.Measure); err != nil && !errors.Is(err, core.ErrDuplicateKey) {
			w.Close() //nolint:errcheck // already failing
			return err
		}
	}
	r.set("persist.recover_ms", float64(time.Since(t0).Microseconds())/1e3)
	return w.Close()
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files under src into dst.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		defer in.Close() //nolint:errcheck // read-only
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			return errors.Join(err, out.Close())
		}
		return out.Close()
	})
}

// ingestTraced repeats the window with tracing on and derives the server,
// transport, cluster, persist and core layer metrics.
func ingestTraced(e env, r *run, t *tier, client *http.Client, ixs []*ingestIndex, pool []request,
	window func(time.Duration, int64) openResult, untraced []timed) error {
	probe := &http.Client{Timeout: 5 * time.Second}
	var lb, la, fb, fa server.ServerStats
	var rb, ra cluster.RouterStats
	snap := func(l, f *server.ServerStats, rt *cluster.RouterStats) error {
		if err := getJSON(probe, t.lts.URL+"/v1/stats", l); err != nil {
			return err
		}
		if err := getJSON(probe, t.fts.URL+"/v1/stats", f); err != nil {
			return err
		}
		return getJSON(probe, t.rts.URL+"/v1/stats", rt)
	}
	if err := snap(&lb, &fb, &rb); err != nil {
		return err
	}
	tr := newTracer()
	e.tap.cur.Store(tr)
	stop := make(chan struct{})
	var stale []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var st server.ServerStats
				if getJSON(probe, t.fts.URL+"/v1/stats", &st) == nil {
					stale = append(stale, float64(st.StalenessMS))
				}
			}
		}
	}()
	open := window(e.dur/2, 2000)
	close(stop)
	wg.Wait()
	e.tap.cur.Store(nil)
	if err := snap(&la, &fa, &ra); err != nil {
		return err
	}
	overhead := median(durations(open.latency)) - median(durations(untraced))
	r.set("trace.overhead_us", overhead)
	r.note("tracing overhead (traced − untraced p50 of the reads beside the writes): %.2f us", overhead)

	spans := tr.spans
	ls := link(spans, func(name string) bool { return name == "router" })
	kids := children(spans)
	var handler, insert, routerSelf, transport []float64
	reads := int64(0)
	for _, s := range spans {
		isQuery := strings.HasSuffix(s.path, "/query")
		switch {
		case (s.name == "leader" || s.name == "follower") && isQuery:
			handler = append(handler, float64(s.dur())/1e3)
		case s.name == "leader" && strings.HasSuffix(s.path, "/insert"):
			insert = append(insert, float64(s.dur())/1e3)
		case s.name == "router" && isQuery:
			routerSelf = append(routerSelf, float64(selfTime(s, kids[s.id]))/1e3)
		case s.name == "client" && isQuery:
			reads++
			transport = append(transport, float64(selfTime(s, kids[s.id]))/1e3)
		}
	}
	hd, id, rd := newDist(handler), newDist(insert), newDist(routerSelf)
	r.set("server.handler_us_p50", hd.quantile(50))
	r.set("server.handler_us_p99", hd.quantile(99))
	r.set("server.insert_us_p50", id.quantile(50))
	r.set("server.insert_us_p99", id.quantile(99))
	r.set("cluster.router_self_us_p50", rd.quantile(50))
	r.set("cluster.router_self_us_p99", rd.quantile(99))
	r.set("transport.us_p50", median(transport))
	r.note("replica query handler span: %s", hd.describe("us"))
	r.note("leader insert handler span: %s", id.describe("us"))
	r.note("router self time: %s", rd.describe("us"))
	r.note("span matching: replica spans matched to router spans by time containment (the router forwards only Content-Type, so the request-id header never reaches replicas): %d matched, %d ambiguous (body hash shared), %d unmatched",
		ls.byContainment, ls.ambiguous, ls.unmatched)

	// both sums a counter's growth over the window on leader and follower.
	both := func(f func(server.ServerStats) int64) int64 { return f(la) - f(lb) + f(fa) - f(fb) }
	hits := both(func(s server.ServerStats) int64 { return s.CacheHits })
	misses := both(func(s server.ServerStats) int64 { return s.CacheMisses })
	executed := both(func(s server.ServerStats) int64 { return s.ExecutedQueries })
	r.set("server.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("server.coalesced_ratio", ratio(both(func(s server.ServerStats) int64 { return s.CoalescedQueries }), reads))
	r.set("server.batched_ratio", ratio(both(func(s server.ServerStats) int64 { return s.BatchedQueries }), executed))
	r.set("server.executed_ratio", ratio(executed, reads))
	r.set("server.shed_ratio", ratio(both(func(s server.ServerStats) int64 { return s.ShedQueries }), reads))
	r.set("server.timed_out_ratio", ratio(both(func(s server.ServerStats) int64 { return s.TimedOutQueries }), reads))
	hedged := ra.HedgedRequests - rb.HedgedRequests
	r.set("cluster.hedged_ratio", ratio(hedged, reads))
	r.set("cluster.hedge_win_ratio", ratio(ra.HedgeWins-rb.HedgeWins, hedged))
	sd := newDist(stale)
	r.set("cluster.staleness_ms_p50", sd.quantile(50))
	r.set("cluster.staleness_ms_max", sd.quantile(100))
	r.note("follower staleness: %d samples, p50 %.0f ms, max %.0f ms", sd.n(), sd.quantile(50), sd.quantile(100))

	var bodies [][]byte
	for _, rq := range pool {
		if rq.ix == 0 {
			bodies = append(bodies, rq.body)
		}
	}
	r.set("server.handler_allocs_per_req", handlerAllocs(t.leader, "/v1/indexes/"+ixs[0].name+"/query", bodies))

	walBytes, walRecs := int64(0), int64(0)
	for _, ix := range ixs {
		var st server.StatsResponse
		if err := getJSON(probe, t.lts.URL+"/v1/indexes/"+ix.name, &st); err != nil {
			return err
		}
		walBytes += st.WALBytes
		walRecs += st.WALRecords
	}
	r.set("persist.wal_bytes_per_record", ratio(walBytes, walRecs))
	if err := walAppendReplay(e, r, ixs[0].ins); err != nil {
		return err
	}
	if err := coreInsertReplay(e, r, ixs[0]); err != nil {
		return err
	}
	if err := libraryLayers(e, r, []*served{ixs[0].served, ixs[1].served}, pool, []float64{0.01, 0.01}); err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(e.workdir), "trace-ingest_routed.tsv")
	if err := writeTrace(path, spans, ls); err != nil {
		return err
	}
	r.note("trace: %d spans written to %s", len(spans), path)
	return nil
}

// walAppendReplay times WAL.Append of the writer's records at the
// workload's batch size, fsync included.
func walAppendReplay(e env, r *run, ins insertLog) error {
	w, _, _, err := persist.OpenWAL(filepath.Join(e.workdir, "replay.wal"))
	if err != nil {
		return err
	}
	var lat []float64
	for i := 0; i+ingBatch <= len(ins.keys) && len(lat) < 500; i += ingBatch {
		recs := make([]persist.Record, ingBatch)
		for j := range recs {
			recs[j] = persist.Record{Key: ins.keys[i+j], Measure: ins.measures[i+j]}
		}
		t0 := time.Now()
		if err := w.Append(recs); err != nil {
			w.Close() //nolint:errcheck // already failing
			return err
		}
		lat = append(lat, us(time.Since(t0)))
	}
	d := newDist(lat)
	r.set("persist.wal_append_us_p50", d.quantile(50))
	r.set("persist.wal_append_us_p99", d.quantile(99))
	r.note("WAL.Append of %d records: %s", ingBatch, d.describe("us"))
	return w.Close()
}

// coreInsertReplay times core.Dynamic1D.Insert over the writer's sequence
// (as many inserts as the window acknowledged, capped) on an identically
// built index, then one explicit Rebuild.
func coreInsertReplay(e env, r *run, ix *ingestIndex) error {
	ones := make([]float64, len(ix.keys)) // core's dynamic COUNT keeps unit measures for rebuilds
	for i := range ones {
		ones[i] = 1
	}
	d, err := core.NewDynamic(core.Count, ix.keys, ones, core.Options{
		Delta: core.DeltaForAbs(core.Count, ix.epsAbs), Parallelism: e.procs})
	if err != nil {
		return err
	}
	n := min(int(ix.acked.Load()), 20_000)
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := d.Insert(ix.ins.keys[i], 1); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
	}
	r.set("core.insert_ns_p99", newDist(lat).quantile(99))
	t0 := time.Now()
	if err := d.Rebuild(); err != nil {
		return err
	}
	r.set("core.rebuild_ms", float64(time.Since(t0).Microseconds())/1e3)
	return nil
}
