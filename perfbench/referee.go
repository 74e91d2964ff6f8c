package main

// The referee checks every answer against internal/oracle. An answer fails
// when |value − exact| exceeds the certified bound the program reported
// (plus a float-rounding slack of 1e-9 relative: exact fallbacks sum in a
// different order than the oracle does).

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/oracle"
	"repro/internal/server"
)

// agg names the aggregate of one index, as the server spells it.
type agg string

const (
	aggCount agg = "count"
	aggSum   agg = "sum"
	aggMax   agg = "max"
)

// exact is the referee's answer for one range.
type exact struct {
	value float64
	found bool // false: MAX over an empty range
}

func exactOf(o *oracle.Oracle, a agg, lo, hi float64) exact {
	switch a {
	case aggCount:
		return exact{o.Count(lo, hi), true}
	case aggSum:
		return exact{o.Sum(lo, hi), true}
	default:
		v, ok := o.Max(lo, hi)
		return exact{v, ok}
	}
}

func slack(x float64) float64 { return 1e-9 * math.Max(1, math.Abs(x)) }

// withinBound reports whether an answer honours its certified bound.
func withinBound(v, want, bound float64) bool {
	return math.Abs(v-want) <= bound+slack(want)
}

// answerOK checks one answer against the referee's exact value.
func answerOK(e exact, value, bound float64, found bool) bool {
	if !e.found {
		return !found
	}
	return found && withinBound(value, e.value, bound)
}

// prefixConsistent is the staleness referee for a replica that applies a
// single writer's inserts in order: the answer v is correct if it lies
// within bound of base + the sum of some prefix of contrib, where contrib
// holds, in insert order, the measures of the inserts that fall in the
// query range and were sent before the answer arrived. Measures are
// non-negative, so prefix sums only grow and the walk stops early.
func prefixConsistent(base float64, contrib []float64, v, bound float64) bool {
	cur := base
	if withinBound(v, cur, bound) {
		return true
	}
	for _, m := range contrib {
		cur += m
		if withinBound(v, cur, bound) {
			return true
		}
		if cur > v+bound+slack(cur) {
			return false
		}
	}
	return false
}

// insertLog is a single writer's insert sequence for one index, in send
// order.
type insertLog struct {
	keys, measures []float64
}

// staleRead is one answer to check against an insertLog: sent is how many
// of the log's inserts had been sent when the answer arrived.
type staleRead struct {
	lo, hi, base float64 // base: exact answer over the base keys alone
	value, bound float64
	sent         int
}

// checkStale runs the prefix referee over reads, returning how many fail:
// each read walks the inserts sent before its answer arrived.
func checkStale(log insertLog, reads []staleRead) (failed int) {
	for _, rd := range reads {
		var contrib []float64
		for i := 0; i < rd.sent && i < len(log.keys); i++ {
			if log.keys[i] > rd.lo && log.keys[i] <= rd.hi {
				contrib = append(contrib, log.measures[i])
			}
		}
		if !prefixConsistent(rd.base, contrib, rd.value, rd.bound) {
			failed++
		}
	}
	return failed
}

// checker counts outcomes of HTTP requests.
type checker struct {
	attempted, failed, violations atomic.Int64
	mu                            sync.Mutex
	reasons                       map[string]int // failure kind → count, for the report
}

// fail records one failed request of the given kind.
func (c *checker) fail(kind string) {
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reasons == nil {
		c.reasons = map[string]int{}
	}
	c.reasons[kind]++
}

// failHTTP classifies a transport error or non-2xx status.
func (c *checker) failHTTP(what string, status int, err error) {
	if err != nil {
		c.fail(what + ": transport error: " + err.Error())
		return
	}
	c.fail(fmt.Sprintf("%s: status %d", what, status))
}

// check classifies one response to rq: transport errors and non-2xx
// statuses fail; a 200 whose answer breaks its bound is a violation.
func (c *checker) check(rq *request, status int, body []byte, err error) {
	c.attempted.Add(1)
	if err != nil || status != http.StatusOK {
		c.failHTTP("query", status, err)
		return
	}
	var qr server.QueryResponse
	if json.Unmarshal(body, &qr) != nil || !answerOK(rq.want, qr.Value, qr.Bound, qr.Found) {
		c.fail("query: answer outside its bound")
		c.violations.Add(1)
	}
}

// into adds the tally to r and lists the failure kinds in the report.
func (c *checker) into(r *run) {
	kinds := make([]string, 0, len(c.reasons))
	for kind := range c.reasons {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		r.note("failed: %d × %s", c.reasons[kind], kind)
	}
	r.attempted += c.attempted.Load()
	r.failed += c.failed.Load()
	r.violations += c.violations.Load()
}
