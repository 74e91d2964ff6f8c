// Command perfbench is the repository's benchmark: one workload per run,
// generated from a seed, measured for a fixed window, every answer checked
// against an exact referee (internal/oracle).
//
//	go run . --workload serve_zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object whose
// metrics are the end-to-end set; with --trace 1 the window is split into
// an untraced half and a traced half and the metrics are the per-layer set.
// Earlier lines are a human-readable report. See README.md for the
// workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct{ name, unit string }

// endToEnd are the figures a user of the system sees; every workload
// reports all of them (see README.md for what "point" and "work" are on
// each workload).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"point_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"index_bytes_per_key", "B/key"},
}

// perLayer are the traced run's figures, by module. A layer a workload
// does not pass through reports 0.
var perLayer = []metric{
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.handler_allocs_per_req", "allocs"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced_ratio", "ratio"},
	{"server.batched_ratio", "ratio"},
	{"server.executed_ratio", "ratio"},
	{"server.shed_ratio", "ratio"},
	{"server.timed_out_ratio", "ratio"},
	{"server.insert_us_p50", "us"},
	{"server.insert_us_p99", "us"},
	{"transport.us_p50", "us"},
	{"cluster.router_self_us_p50", "us"},
	{"cluster.router_self_us_p99", "us"},
	{"cluster.hedged_ratio", "ratio"},
	{"cluster.hedge_win_ratio", "ratio"},
	{"cluster.staleness_ms_p50", "ms"},
	{"cluster.staleness_ms_max", "ms"},
	{"polyfit.query_ns_p50", "ns"},
	{"polyfit.queryrel_ns_p50", "ns"},
	{"polyfit.queryrel_ns_p99", "ns"},
	{"polyfit.batch_ns_per_range", "ns"},
	{"polyfit.exact_ratio", "ratio"},
	{"polyfit.build_s", "s"},
	{"core.locate_ns", "ns"},
	{"core.segments", "count"},
	{"core.coeff_bytes_per_key", "B/key"},
	{"core.root_bytes", "B"},
	{"core.insert_ns_p99", "ns"},
	{"core.rebuild_ms", "ms"},
	{"kca.bytes_per_key", "B/key"},
	{"kca.exact_ns_p50", "ns"},
	{"segment.greedy_s", "s"},
	{"persist.wal_append_us_p50", "us"},
	{"persist.wal_append_us_p99", "us"},
	{"persist.wal_bytes_per_record", "B"},
	{"persist.snapshots_written", "count"},
	{"persist.recover_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_us", "us"},
}

// setupReps is how many times each workload sets up; setup_s is the median.
const setupReps = 5

// env is what every workload receives.
type env struct {
	seed    int64
	dur     time.Duration // the measured window (both halves, when tracing)
	trace   bool
	procs   int    // client goroutines/connections: at most nproc
	workdir string // scratch space inside the checkout
	tap     *tap
}

// run collects one workload run's results.
type run struct {
	metrics    map[string]float64
	attempted  int64
	failed     int64
	violations int64 // answers outside their certified bound
	lost       int64 // acknowledged inserts missing after recovery
	lines      []string
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(env) (*run, error){
	"serve_zipf":      serveZipf,
	"analytics_batch": analyticsBatch,
	"ingest_routed":   ingestRouted,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "serve_zipf | analytics_batch | ingest_routed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	workdir := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workdir) //nolint:errcheck // scratch cleanup

	procs := runtime.GOMAXPROCS(0)
	e := env{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *traceFlag == 1,
		procs: procs, workdir: workdir, tap: &tap{}}
	r, err := wl(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *traceFlag)
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		runtime.NumCPU(), procs, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	set := endToEnd
	if e.trace {
		set = perLayer
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   r.violations == 0 && r.lost == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]map[string]any{},
	}
	for _, m := range set {
		v, ok := r.metrics[m.name]
		if !ok && !e.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, m.name)
			return 1
		}
		fmt.Printf("%-32s %14.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	fmt.Printf("fail_ratio %.6g (%d failed of %d attempted); bound violations %d; lost acknowledged inserts %d\n",
		ratio(r.failed, r.attempted), r.failed, r.attempted, r.violations, r.lost)
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(raw))
	if !out.Correct || r.attempted == 0 {
		return 1
	}
	return 0
}

// --- shared plumbing --------------------------------------------------------

// newClient returns an HTTP client with conns keep-alive connections per
// host, its transport wrapped by the tap.
func newClient(tp *tap, conns int) *http.Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tp.client(tr), Timeout: 30 * time.Second}
}

// post sends body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON decodes a GET response into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // read-only
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// gcWindow measures GC cycles and pause time over a window: the untraced
// one, so the tracer's own garbage is not counted.
type gcWindow struct{ before runtime.MemStats }

func startGC() *gcWindow {
	g := &gcWindow{}
	runtime.ReadMemStats(&g.before)
	return g
}

func (g *gcWindow) stop(r *run) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.set("go.gc_cycles", float64(after.NumGC-g.before.NumGC))
	r.set("go.gc_pause_ms", float64(after.PauseTotalNs-g.before.PauseTotalNs)/1e6)
}

// setupMedian runs setup setupReps times, tearing down all but the last,
// and records setup_s as the median duration.
func setupMedian[T any](r *run, setup func() (T, error), teardown func(T)) (T, error) {
	var times []float64
	var cur T
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(cur)
		}
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return cur, err
		}
		times = append(times, time.Since(t0).Seconds())
		cur = v
	}
	r.set("setup_s", median(times))
	r.note("setup_s runs: %v", times)
	return cur, nil
}

// latencyMetrics records name_p50_us from samples in µs: the median over
// consecutive windows of at least max(1000, n/10) samples (so every
// window's p99 has ten samples beyond it) of each window's p50. The
// windowed p90 and p99 and the whole-run distribution go to the report: on
// shared virtual machines the tails moved by more between runs than any
// bound the benchmark may set.
func latencyMetrics(r *run, name string, samples []timed) error {
	d := newDist(durations(samples))
	if _, err := d.tailAt(99); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	meds, windows := windowed(samples, max(1000, len(samples)/10), 50, 90, 99)
	r.set(name+"_p50_us", meds[0])
	r.note("%s latency: %s; median over %d windows: p50 %.4g us, p90 %.4g us, p99 %.4g us",
		name, d.describe("us"), windows, meds[0], meds[1], meds[2])
	return nil
}

// cpuMetric records cpu_us_per_op: the CPU time the whole process (clients,
// servers, follower and router alike) used over a window, per operation
// completed in it. It counts work done rather than time waited, so a host
// that takes CPU time away (steal) or a slow disk flush does not move it.
// The window's steal share goes to the report.
func cpuMetric(r *run, u cpuUse, ops float64, what string) {
	r.set("cpu_us_per_op", u.cpuS*1e6/ops)
	r.note("cpu_us_per_op: %.4g us of process CPU per %s (%.3f CPU-s over %.0f); host steal %.1f%% of CPU time during the window",
		u.cpuS*1e6/ops, what, u.cpuS, ops, 100*u.steal)
}

// durations extracts the latencies of timed samples.
func durations(samples []timed) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.lat
	}
	return out
}
