package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1) // 1..1000
	}
	d := newDist(samples)
	if got := d.quantile(50); got != 500 {
		t.Fatalf("p50 = %v, want 500", got)
	}
	if got := d.quantile(99); got != 990 {
		t.Fatalf("p99 = %v, want 990", got)
	}
	// 1000 samples: exactly 10 lie beyond p99, so p99 qualifies and p99.9
	// (1 beyond) does not.
	if b := beyond(d.n(), 99); b != 10 {
		t.Fatalf("beyond p99 = %d, want 10", b)
	}
	if _, err := d.tailAt(99); err != nil {
		t.Fatalf("p99 of 1000 samples rejected: %v", err)
	}
	if _, err := d.tailAt(99.9); err == nil {
		t.Fatal("p99.9 of 1000 samples accepted with 1 sample beyond")
	}
	p, v, ok := d.tail()
	if !ok || p != 99 || v != 990 {
		t.Fatalf("tail = p%v %v %v, want p99 990 true", p, v, ok)
	}
	// 999 samples: only 9 beyond p99, so the tail falls back to p90.
	short := newDist(samples[:999])
	if _, err := short.tailAt(99); err == nil {
		t.Fatal("p99 of 999 samples accepted with 9 beyond")
	}
	if p, _, _ := short.tail(); p != 90 {
		t.Fatalf("tail of 999 samples = p%v, want p90", p)
	}
	if _, _, ok := newDist(samples[:5]).tail(); ok {
		t.Fatal("5 samples gave a tail")
	}
	// describe reports the sample count.
	if s := d.describe("us"); !strings.Contains(s, "n=1000") {
		t.Fatalf("describe %q lacks the count", s)
	}
}

// TestOpenLoopTimesFromDueTime stalls the first request: the requests due
// during the stall must be charged the wait, not just their own service.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	res := openLoop(200, 100*time.Millisecond, 1, func(_ int, i int64) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	if len(res.latency) != 20 || len(res.lateness) != 20 {
		t.Fatalf("got %d latencies, %d lateness samples, want 20", len(res.latency), len(res.lateness))
	}
	// One sender, so latencies are in request order. Request i is due at
	// 5i ms and cannot start before the stall ends at ≥ 30 ms.
	for i := 1; i < 6; i++ {
		due := float64(i) * 5000
		if min := float64(stall.Microseconds()) - due; res.latency[i].lat < min {
			t.Errorf("request %d latency %.0f us, want ≥ %.0f (the stall's wait)", i, res.latency[i].lat, min)
		}
	}
	// The pacer itself kept its schedule: it never waits for senders.
	if late := newDist(res.lateness).quantile(50); late > 5000 {
		t.Errorf("median generator lateness %.0f us", late)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{
		{start: 10, end: 30},
		{start: 20, end: 40},   // overlaps the first: union 10..40
		{start: 90, end: 150},  // clipped to the parent: 90..100
		{start: 200, end: 300}, // outside: ignored
	}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Fatalf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %d, want 100", got)
	}
}

func TestLinkMatchesReplicaSpansByContainment(t *testing.T) {
	spans := []span{
		{id: 1, req: 7, name: "client", start: 0, end: 100, body: 1},
		{id: 2, req: 7, name: "router", start: 5, end: 95, body: 1},
		{id: 3, req: 8, name: "client", start: 10, end: 90, body: 2},
		{id: 4, req: 8, name: "router", start: 12, end: 88, body: 2},
		// Replica spans carry no request id: both routers contain them.
		{id: 5, name: "leader", start: 20, end: 30, body: 1},
		{id: 6, name: "follower", start: 40, end: 50, body: 2},
		{id: 7, name: "leader", start: 96, end: 99, body: 1}, // after every router span
	}
	ls := link(spans, func(n string) bool { return n == "router" })
	if spans[1].parent != 1 || spans[3].parent != 3 {
		t.Fatalf("router parents = %d, %d, want 1, 3", spans[1].parent, spans[3].parent)
	}
	if spans[4].parent != 2 || spans[5].parent != 4 {
		t.Fatalf("replica parents = %d, %d, want 2 (same body), 4 (same body)", spans[4].parent, spans[5].parent)
	}
	if spans[6].parent != 0 || ls.unmatched != 1 || ls.byContainment != 2 || ls.byHeader != 2 {
		t.Fatalf("link stats %+v, unmatched parent %d", ls, spans[6].parent)
	}
}

func TestPrefixConsistent(t *testing.T) {
	contrib := []float64{10, 10, 10} // prefix sums over base 100: 100, 110, 120, 130
	cases := []struct {
		v, bound float64
		want     bool
	}{
		{100, 0, true},  // no insert applied yet
		{120, 0, true},  // two applied
		{115, 0, false}, // between prefixes, no slack
		{115, 5, true},  // within bound of 110 and 120
		{131, 0, false}, // more than every prefix
		{99, 0.5, false},
	}
	for _, c := range cases {
		if got := prefixConsistent(100, contrib, c.v, c.bound); got != c.want {
			t.Errorf("prefixConsistent(v=%v, bound=%v) = %v, want %v", c.v, c.bound, got, c.want)
		}
	}
}

func TestCheckStaleCountsOnlySentPrefixes(t *testing.T) {
	log := insertLog{keys: []float64{5, 15, 6, 7}, measures: []float64{1, 1, 1, 1}}
	reads := []staleRead{
		{lo: 0, hi: 10, base: 3, value: 3, bound: 0.5, sent: 0},  // nothing applied
		{lo: 0, hi: 10, base: 3, value: 5, bound: 0.5, sent: 3},  // keys 5 and 6 applied
		{lo: 0, hi: 10, base: 3, value: 6, bound: 0.5, sent: 3},  // key 7 not yet sent
		{lo: 0, hi: 10, base: 3, value: 2, bound: 0.5, sent: 4},  // below the base: lost data
		{lo: 10, hi: 20, base: 0, value: 1, bound: 0.5, sent: 2}, // key 15
	}
	if bad := checkStale(log, reads); bad != 2 {
		t.Fatalf("checkStale failed %d reads, want 2", bad)
	}
	// Measures larger than the bound: a value between prefixes fails.
	big := insertLog{keys: []float64{1, 2}, measures: []float64{100, 100}}
	walk := []staleRead{
		{lo: 0, hi: 10, base: 0, value: 100, bound: 1, sent: 2},
		{lo: 0, hi: 10, base: 0, value: 150, bound: 1, sent: 2}, // between prefixes
	}
	if bad := checkStale(big, walk); bad != 1 {
		t.Fatalf("checkStale failed %d reads with large measures, want 1", bad)
	}
}

func TestAnswerOK(t *testing.T) {
	if !answerOK(exact{100, true}, 100+1e-8, 0, true) {
		t.Error("float rounding on an exact answer rejected")
	}
	if answerOK(exact{100, true}, 103, 2, true) {
		t.Error("answer outside its bound accepted")
	}
	if answerOK(exact{0, false}, 0, 0, true) || !answerOK(exact{0, false}, 0, 0, false) {
		t.Error("empty MIN/MAX range misjudged")
	}
	if math.IsNaN(slack(0)) {
		t.Error("slack NaN")
	}
}

func TestWindowedTakesMedianOverWindows(t *testing.T) {
	samples := make([]timed, 3000)
	for i := range samples {
		samples[len(samples)-1-i] = timed{at: time.Duration(i), lat: float64(i)} // out of order
	}
	meds, n := windowed(samples, 1000, 50, 99)
	if n != 3 || meds[0] != 1499 || meds[1] != 1989 {
		t.Fatalf("windowed = %v over %d windows, want [1499 1989] over 3", meds, n)
	}
	// A remainder shorter than a window joins the last one.
	if _, n := windowed(samples[:2500], 1000, 50); n != 2 {
		t.Fatalf("2500 samples in windows of 1000 gave %d windows, want 2", n)
	}
}

func TestWindowedRateIgnoresOneBurst(t *testing.T) {
	var events []done
	for w := 0; w < 10; w++ {
		n := 5
		switch w {
		case 3:
			n = 0 // a stall
		case 7:
			n = 50 // a burst
		}
		for i := 0; i < n; i++ {
			events = append(events, done{at: time.Duration(w)*time.Second + time.Millisecond, n: 1})
		}
	}
	if got := windowedRate(events, 10*time.Second); got != 5 {
		t.Fatalf("windowedRate = %v, want 5", got)
	}
}
