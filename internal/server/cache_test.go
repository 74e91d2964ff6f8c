package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// cachedServer builds an in-memory server with the result cache enabled
// and a dynamic COUNT index named "ix" holding keys 0..n-1.
func cachedServer(t *testing.T, cacheBytes int64, n int) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewDurable(Config{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i)
	}
	if _, err := s.Create(CreateRequest{Name: "ix", Agg: "count", EpsAbs: 64, Dynamic: true, Keys: keys}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// rawQueryBody posts one query and returns the exact response bytes.
func rawQueryBody(t *testing.T, ts *httptest.Server, name string, lo, hi float64) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/indexes/"+name+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"lo": %g, "hi": %g}`, lo, hi)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestCacheHitServesWithoutTraversal is the acceptance check for the
// cache fast path: a repeated query is answered byte-identically with
// zero index traversal, counter-verified via executed_queries.
func TestCacheHitServesWithoutTraversal(t *testing.T) {
	s, ts := cachedServer(t, 1<<20, 512)

	st1, body1 := rawQueryBody(t, ts, "ix", 10, 300)
	if st1 != http.StatusOK {
		t.Fatalf("first query: status %d", st1)
	}
	executedAfterMiss := s.executed.Load()
	if executedAfterMiss == 0 {
		t.Fatal("first query did not traverse the index")
	}
	st2, body2 := rawQueryBody(t, ts, "ix", 10, 300)
	if st2 != http.StatusOK {
		t.Fatalf("repeated query: status %d", st2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs from original: %q vs %q", body2, body1)
	}
	if got := s.executed.Load(); got != executedAfterMiss {
		t.Errorf("cache hit traversed the index: executed_queries %d -> %d", executedAfterMiss, got)
	}
	var stats ServerStats
	get(t, ts, "/v1/stats", &stats)
	if !stats.CacheEnabled || stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Errorf("cache counters = {enabled:%v hits:%d misses:%d}, want {true, 1, 1}",
			stats.CacheEnabled, stats.CacheHits, stats.CacheMisses)
	}
	var ixStats StatsResponse
	get(t, ts, "/v1/indexes/ix", &ixStats)
	if ixStats.CacheHits != 1 || ixStats.CacheMisses != 1 || ixStats.CacheBytes == 0 {
		t.Errorf("per-index cache stats = {hits:%d misses:%d bytes:%d}, want {1, 1, >0}",
			ixStats.CacheHits, ixStats.CacheMisses, ixStats.CacheBytes)
	}
}

// TestCacheInvalidatedByInsert pins the structural-invalidation claim: a
// query arriving after an insert must never observe the pre-insert cached
// value, because the bumped generation changes its cache key.
func TestCacheInvalidatedByInsert(t *testing.T) {
	s, ts := cachedServer(t, 1<<20, 512)

	var before QueryResponse
	post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 1000}, &before)
	// Warm the cache line for this exact range.
	post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 1000}, nil)
	if s.cache.hits.Load() != 1 {
		t.Fatalf("warmup hit count = %d, want 1", s.cache.hits.Load())
	}

	post(t, ts, "/v1/indexes/ix/insert", InsertRequest{Records: []Record{{Key: 600}, {Key: 601}}}, nil)
	var after QueryResponse
	post(t, ts, "/v1/indexes/ix/query", QueryRequest{Lo: 0, Hi: 1000}, &after)
	if after.Value != before.Value+2 {
		t.Fatalf("post-insert count = %g, want %g (pre-insert cached value served?)", after.Value, before.Value+2)
	}
	if got := s.cache.hits.Load(); got != 1 {
		t.Errorf("post-insert query hit the stale cache line: hits = %d, want 1", got)
	}
}

// TestCacheEvictionRespectsCap fills a tiny cache with distinct ranges
// and pins the byte gauge under the configured capacity throughout.
func TestCacheEvictionRespectsCap(t *testing.T) {
	const capBytes = 8 << 10
	s, ts := cachedServer(t, capBytes, 2048)
	for i := 0; i < 400; i++ {
		if st, _ := rawQueryBody(t, ts, "ix", float64(i), float64(i+100)); st != http.StatusOK {
			t.Fatalf("query %d: status %d", i, st)
		}
		if got := s.cache.bytes.Load(); got > s.cache.capacity() {
			t.Fatalf("cache_bytes %d exceeds capacity %d after query %d", got, s.cache.capacity(), i)
		}
	}
	if s.cache.evictions.Load() == 0 {
		t.Error("400 distinct ranges in an 8 KiB cache produced no evictions")
	}
	// The per-entry byte gauge agrees with the global one (single index).
	var ixStats StatsResponse
	get(t, ts, "/v1/indexes/ix", &ixStats)
	if ixStats.CacheBytes != s.cache.bytes.Load() {
		t.Errorf("per-index cache_bytes %d != global %d", ixStats.CacheBytes, s.cache.bytes.Load())
	}
}

// TestCacheChurnMatchesUncachedControl is the -race stress test: a cached
// server and an uncached control receive identical mutations (inserts,
// rebuilds, restores — the last replacing the entry pointer), and after
// every mutation a swarm of concurrent repeated queries must return
// responses bitwise-identical to the control's, certified Bound included.
// A stale cache line, a generation race, or an un-purged entry would
// surface as a body mismatch.
func TestCacheChurnMatchesUncachedControl(t *testing.T) {
	cached, tsCached := cachedServer(t, 256<<10, 1024)
	_, tsControl := cachedServer(t, 0, 1024) // CacheBytes 0: cache disabled
	if cached.cache == nil {
		t.Fatal("cached server has no cache")
	}

	ranges := [][2]float64{{0, 500}, {100, 900}, {250, 251}, {0, 5000}, {-10, 3}}
	verify := func(round int) {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for _, r := range ranges {
						stC, bodyC := rawQueryBody(t, tsCached, "ix", r[0], r[1])
						stU, bodyU := rawQueryBody(t, tsControl, "ix", r[0], r[1])
						if stC != http.StatusOK || stU != http.StatusOK {
							t.Errorf("round %d range %v: status cached=%d control=%d", round, r, stC, stU)
							return
						}
						if !bytes.Equal(bodyC, bodyU) {
							t.Errorf("round %d range %v: cached %q != control %q", round, r, bodyC, bodyU)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}

	mutateBoth := func(round int) {
		switch round % 3 {
		case 0: // insert a batch into both
			recs := make([]Record, 8)
			for i := range recs {
				recs[i] = Record{Key: float64(10_000 + round*100 + i)}
			}
			for _, ts := range []*httptest.Server{tsCached, tsControl} {
				var out InsertResponse
				post(t, ts, "/v1/indexes/ix/insert", InsertRequest{Records: recs}, &out)
				if out.Inserted != len(recs) {
					t.Fatalf("round %d: inserted %d of %d (%v)", round, out.Inserted, len(recs), out.Errors)
				}
			}
		case 1: // force a merge-rebuild on both
			for _, ts := range []*httptest.Server{tsCached, tsControl} {
				if resp := post(t, ts, "/v1/indexes/ix/rebuild", nil, nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d rebuild: status %d", round, resp.StatusCode)
				}
			}
		case 2: // restore the cached server's own blob into both: the
			// cached server's entry pointer changes, purging its cache
			resp, err := tsCached.Client().Get(tsCached.URL + "/v1/indexes/ix/marshal")
			if err != nil {
				t.Fatal(err)
			}
			blob, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			req := RestoreRequest{Blob: base64.StdEncoding.EncodeToString(blob)}
			for _, ts := range []*httptest.Server{tsCached, tsControl} {
				if resp := post(t, ts, "/v1/indexes/ix/restore", req, nil); resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d restore: status %d", round, resp.StatusCode)
				}
			}
		}
	}

	verify(0)
	for round := 1; round <= 9; round++ {
		mutateBoth(round)
		verify(round)
	}
	var stats ServerStats
	get(t, tsCached, "/v1/stats", &stats)
	if stats.CacheHits == 0 {
		t.Error("churn stress never hit the cache — repeated queries were not cached")
	}
	if got, cap := cached.cache.bytes.Load(), cached.cache.capacity(); got > cap {
		t.Errorf("cache_bytes %d exceeds capacity %d after churn", got, cap)
	}
}

// TestLateLeaderCachesNothingForRetiredIndex is the regression test for a
// retired index's cache line coming back: a query leader that finishes
// after its index was deleted, or replaced by a restore, must not file
// its body into the cache, so cache_bytes returns to 0 and stays there.
func TestLateLeaderCachesNothingForRetiredIndex(t *testing.T) {
	for _, tc := range []struct {
		name   string
		retire func(t *testing.T, ts *httptest.Server, blob []byte)
	}{
		{"delete", func(t *testing.T, ts *httptest.Server, _ []byte) {
			req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/indexes/ix", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: status %d", resp.StatusCode)
			}
		}},
		{"restore", func(t *testing.T, ts *httptest.Server, blob []byte) {
			req := RestoreRequest{Blob: base64.StdEncoding.EncodeToString(blob)}
			if resp := post(t, ts, "/v1/indexes/ix/restore", req, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("restore: status %d", resp.StatusCode)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := cachedServer(t, 1<<20, 512)
			blob := mustGetRaw(t, ts, "/v1/indexes/ix/marshal")
			entered, release := holdQueries(t)

			var wg sync.WaitGroup
			var code int
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := ts.Client().Post(ts.URL+"/v1/indexes/ix/query", "application/json",
					strings.NewReader(`{"lo": 10, "hi": 300}`))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				code = resp.StatusCode
			}()
			<-entered // the leader holds its entry, not yet executed
			tc.retire(t, ts, blob)
			close(release)
			wg.Wait()
			if code != http.StatusOK {
				t.Fatalf("held query: status %d, want 200", code)
			}

			var stats ServerStats
			get(t, ts, "/v1/stats", &stats)
			if stats.CacheBytes != 0 || s.cache.bytes.Load() != 0 {
				t.Errorf("cache_bytes = %d (gauge %d) after the index was retired, want 0",
					stats.CacheBytes, s.cache.bytes.Load())
			}
		})
	}
}

// TestQueryTableNeverCachesRetiredEntry covers the narrower window of the
// same bug: a request that looked its index up just before a delete
// reaches the query table only after the purge, and leads a fresh entry.
// Its answer is served but never cached.
func TestQueryTableNeverCachesRetiredEntry(t *testing.T) {
	tab := newQueryTable(1 << 20)
	e := &entry{}
	tab.purgeEntry(e)
	key := flightKey{e: e, lo: 10, hi: 300}
	runs := 0
	answer := func() (int, []byte) {
		runs++
		return http.StatusOK, []byte(`{"value":1}`)
	}
	var waiting atomic.Int64
	for i := 0; i < 2; i++ {
		st, _, _, err := tab.do(context.Background(), key, &waiting, answer)
		if err != nil || st != http.StatusOK {
			t.Fatalf("query %d: status %d, err %v", i, st, err)
		}
	}
	if runs != 2 {
		t.Errorf("retired entry's answer was served from the cache: %d executions, want 2", runs)
	}
	if tab.bytes.Load() != 0 || e.cacheBytes.Load() != 0 {
		t.Errorf("cache_bytes = %d (entry %d) for a retired index, want 0", tab.bytes.Load(), e.cacheBytes.Load())
	}
}
