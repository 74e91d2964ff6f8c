package main

// Tracing: spans are recorded by the benchmark's own wrappers around the
// client RoundTrip, the router's ServeHTTP and each server's ServeHTTP —
// never inside the program. Spans live in memory and are written out when
// the run ends.
//
// Client spans put a request id in a header. Servers hit directly see it;
// servers behind the router do not, because the router forwards only
// Content-Type to replicas. Those replica spans are matched to router spans
// by time containment: the parent is a router span whose interval holds the
// replica span, with ties broken by an identical request body.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const reqHeader = "X-Perfbench-Request"

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	id, parent int64 // parent 0: root or unmatched
	req        int64 // request id; 0 when the header did not arrive
	name       string
	start, end int64
	body       uint64 // FNV-1a of the request body
	path       string
}

func (s span) dur() int64 { return s.end - s.start }

type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) add(s span) {
	s.id = t.ids.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) //nolint:errcheck // hash writes cannot fail
	return h.Sum64()
}

// readBody drains r.Body for hashing and puts an identical reader back.
func readBody(r *http.Request) []byte {
	if r.Body == nil {
		return nil
	}
	b, err := io.ReadAll(r.Body)
	r.Body.Close() //nolint:errcheck // the replacement reader is what the handler sees
	if err != nil {
		b = nil
	}
	r.Body = io.NopCloser(bytes.NewReader(b))
	return b
}

// tap switches tracing on and off for wrapped handlers and transports:
// with no tracer installed they pass straight through, so untraced phases
// pay one atomic load per request.
type tap struct{ cur atomic.Pointer[tracer] }

// handler wraps a node's ServeHTTP with a span named name.
func (tp *tap) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tp.cur.Load()
		if t == nil || r.Method != http.MethodPost {
			// Health probes and replication polls are not requests.
			h.ServeHTTP(w, r)
			return
		}
		body := readBody(r)
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.add(span{req: req, name: name, start: t.since(start), end: t.since(end), body: hashBody(body), path: r.URL.Path})
	})
}

type tracingTransport struct {
	tp   *tap
	next http.RoundTripper
}

func (tt tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t := tt.tp.cur.Load()
	if t == nil {
		return tt.next.RoundTrip(r)
	}
	body := readBody(r)
	id := t.ids.Add(1) // request ids share the span id space, so they never collide
	r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := tt.next.RoundTrip(r)
	if err == nil {
		// The round trip ends when the body has been read; the client reads
		// it right away, so draining here costs nothing extra.
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck // replaced below
		resp.Body = io.NopCloser(bytes.NewReader(b))
		if rerr != nil {
			err = rerr
		}
	}
	end := time.Now()
	t.add(span{req: id, name: "client", start: t.since(start), end: t.since(end), body: hashBody(body), path: r.URL.Path})
	return resp, err
}

// client wraps a transport with client spans.
func (tp *tap) client(next http.RoundTripper) http.RoundTripper {
	return tracingTransport{tp: tp, next: next}
}

// linkStats reports how replica spans were attached to parents.
type linkStats struct {
	byHeader, byContainment, ambiguous, unmatched int
}

// link assigns every span's parent. Spans carrying the request id of a
// client span become its children, except replica spans under a router:
// router spans are the client's children, and replica spans without the
// header are matched to the router span containing them (same body hash
// preferred, then the latest-starting candidate).
func link(spans []span, isRouter func(string) bool) linkStats {
	var st linkStats
	clientOf := map[int64]int64{} // request id → client span id
	for _, s := range spans {
		if s.name == "client" {
			clientOf[s.req] = s.id
		}
	}
	var routers []int
	for i := range spans {
		s := &spans[i]
		if s.name == "client" {
			continue
		}
		if isRouter(s.name) {
			routers = append(routers, i)
		}
		if s.req != 0 {
			if c, ok := clientOf[s.req]; ok {
				s.parent = c
				st.byHeader++
			}
		}
	}
	if len(routers) == 0 {
		return st
	}
	sort.Slice(routers, func(a, b int) bool { return spans[routers[a]].start < spans[routers[b]].start })
	for i := range spans {
		s := &spans[i]
		if s.name == "client" || isRouter(s.name) || s.req != 0 {
			continue
		}
		// Candidates start no later than s; scan back from the last such
		// router span (router spans are short, so the scan stays local).
		hi := sort.Search(len(routers), func(k int) bool { return spans[routers[k]].start > s.start })
		var cands []int
		for k := hi - 1; k >= 0 && s.start-spans[routers[k]].start < int64(10*time.Second); k-- {
			r := spans[routers[k]]
			if r.end >= s.end {
				cands = append(cands, routers[k])
			}
		}
		pick := -1
		same := 0
		for _, c := range cands {
			if spans[c].body == s.body {
				if pick < 0 {
					pick = c // latest-starting, since cands run backwards
				}
				same++
			}
		}
		if pick < 0 && len(cands) > 0 {
			pick, same = cands[0], len(cands)
		}
		switch {
		case pick < 0:
			st.unmatched++
			continue
		case same > 1:
			st.ambiguous++
		}
		s.parent = spans[pick].id
		st.byContainment++
	}
	return st
}

// selfTime is a span's duration minus the part of its interval covered by
// the union of its children's intervals.
func selfTime(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return parent.dur() - covered
}

// children groups spans by parent id.
func children(spans []span) map[int64][]span {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	return kids
}

// writeTrace writes the spans as tab-separated lines, with a header saying
// how replica spans were linked.
func writeTrace(path string, spans []span, ls linkStats) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# perfbench trace: %d spans; times in ns since the run's epoch\n", len(spans))
	fmt.Fprintf(w, "# parents: %d by request-id header; %d replica spans matched to router spans by time containment "+
		"(the router forwards only Content-Type, so the request-id header never reaches replicas); %d of those ambiguous, %d unmatched\n",
		ls.byHeader, ls.byContainment, ls.ambiguous, ls.unmatched)
	fmt.Fprintln(w, "# id\tparent\treq\tname\tpath\tstart\tend")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.req, s.name, s.path, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
