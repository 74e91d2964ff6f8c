package server

import (
	"context"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	polyfit "repro"
)

// Query table (cache.go): one sharded map, keyed by flightKey, that is
// both the singleflight for in-flight point queries and the result cache
// for finished ones. A PolyFit answer and its certified Bound depend only
// on (index instance, data generation, range, eps_rel), so an answer still
// being computed can be shared and a finished one can be kept — the same
// entry serves both, in turn:
//
//   - The first arrival for a key inserts an in-flight entry and leads it:
//     it takes an admission slot and executes (see admission.go).
//   - Identical arrivals while it is in flight wait on the entry, each
//     under its own context (a follower's deadline is its own, never the
//     leader's), and repeat the leader's byte-identical response without
//     consuming slots. They count as coalesced and as cache misses.
//   - When the leader finishes, a 200 body that fits the byte budget stays
//     in the map and joins its shard's LRU list: later arrivals are cache
//     hits, served with zero index traversal. Any other outcome — errors,
//     sheds, timeouts, oversized bodies — leaves the map, so the next
//     arrival re-executes.
//
// With Config.CacheBytes == 0 the budget is zero, every finished entry
// leaves the map, and the table is plain singleflight.
//
// Invalidation is structural rather than temporal:
//
//   - A successful insert or rebuild bumps the index's generation, so
//     every later arrival computes a different key and misses; the old
//     generation's bodies become unreachable and age out of the LRU.
//   - A restore (or delete + recreate) registers a new *entry, changing
//     the pointer component the same way. Delete, restore and a follower's
//     re-join also purge the retired entry eagerly — in-flight entries
//     included — so dead indexes don't squat on the byte budget, and a
//     leader that finishes late never files its body back in.
//   - Static indexes never mutate: generation is the constant 0 and their
//     answers cache until evicted, which is exactly right.
//
// A cached body was marshalled by a leader that read its generation
// BEFORE executing, so the data it reflects is at least as new as the
// generation it is filed under — a hit can serve a fresher answer than
// the cached generation, never a staler one. Serving a stale answer is
// impossible by construction, not by timeout tuning.
//
// Each shard owns a hash slice of the key space under its own mutex, so
// concurrent queries on different keys don't contend on one lock.

// tableShardCount is the fixed number of table shards. 16 keeps lock
// contention negligible at the serving layer's admission-bounded
// concurrency while wasting at most 15 partially-filled budget tails.
const tableShardCount = 16

// cacheItemOverhead approximates the per-item bookkeeping bytes beyond
// the body itself (key, list pointers, map bucket share), charged against
// the byte budget so cache_bytes tracks real memory, not just payload.
const cacheItemOverhead = 160

// flightKey identifies one logical query, for coalescing and caching
// alike. The entry pointer (not the name) scopes it to one registered
// index instance — a restore under the same name changes the pointer —
// and gen is the index's mutation counter, so any successful insert or
// rebuild moves later arrivals onto a fresh key.
type flightKey struct {
	e      *entry
	gen    uint64
	lo, hi float64
	epsRel float64
}

// generationOf reads the entry's data generation for the flight key.
// Static indexes are immutable: every read observes the same data, so a
// constant 0 keys them forever, which is exactly right.
func generationOf(e *entry) uint64 {
	if g, ok := e.ix.(polyfit.Generational); ok {
		return g.Generation()
	}
	return 0
}

// queryEntry is one key's slot in the table. The leader writes status and
// body once before closing done: followers read them after done closes,
// cache hits after finding the entry cached under the shard's mutex.
// cached, size, prev and next are the entry's LRU state and belong to its
// shard's mutex.
type queryEntry struct {
	key    flightKey
	done   chan struct{}
	status int
	body   []byte

	cached     bool  // finished and linked into the shard's LRU list
	size       int64 // bytes charged against the budget while cached
	prev, next *queryEntry
}

// tableShard is one partition of the table: a map holding in-flight and
// cached entries, and an intrusive doubly-linked list of the cached ones
// ordered most- to least-recently used.
type tableShard struct {
	mu    sync.Mutex
	items map[flightKey]*queryEntry // guarded by mu
	head  *queryEntry               // guarded by mu; most recently used
	tail  *queryEntry               // guarded by mu; least recently used, next eviction victim
	bytes int64                     // guarded by mu
}

// queryTable is the server-wide query table.
type queryTable struct {
	enabled  bool  // Config.CacheBytes > 0: finished answers are kept and hits/misses counted
	shardCap int64 // byte budget per shard
	shards   [tableShardCount]tableShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64 // current total across shards
}

// newQueryTable returns a table that caches roughly capacity bytes
// (bodies + per-item overhead), split evenly across the shards; a
// capacity of 0 keeps nothing once a flight ends.
func newQueryTable(capacity int64) *queryTable {
	t := &queryTable{enabled: capacity > 0, shardCap: max(capacity, 0) / tableShardCount}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.items = make(map[flightKey]*queryEntry)
		sh.mu.Unlock()
	}
	return t
}

// capacity reports the total byte budget.
func (t *queryTable) capacity() int64 { return t.shardCap * tableShardCount }

// shardOf hashes the key onto a shard. The entry pointer is deliberately
// left out (pointers don't hash portably without unsafe); generation and
// range bits alone spread keys well, and correctness never depends on the
// shard choice — only key equality does.
func (t *queryTable) shardOf(key flightKey) *tableShard {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, v := range [4]uint64{
		key.gen,
		math.Float64bits(key.lo),
		math.Float64bits(key.hi),
		math.Float64bits(key.epsRel),
	} {
		h ^= v
		h *= 1099511628211 // FNV-1a prime
	}
	return &t.shards[h%tableShardCount]
}

// do answers one query for key: from the cached entry (a hit), from an
// identical in-flight query (followed), or by running fn as the leader of
// a new entry. A follower whose ctx dies first gets ctx's error and no
// outcome; the flight itself stays open for patient followers. waiting is
// a gauge of followers currently blocked. The returned body is shared and
// must not be mutated (writeRaw only reads).
func (t *queryTable) do(ctx context.Context, key flightKey, waiting *atomic.Int64, fn func() (int, []byte)) (status int, body []byte, followed bool, err error) {
	sh := t.shardOf(key)
	sh.mu.Lock()
	en, found := sh.items[key]
	hit := found && en.cached
	if hit {
		sh.moveToFront(en)
	} else if !found {
		en = &queryEntry{key: key, done: make(chan struct{})}
		sh.items[key] = en
	}
	sh.mu.Unlock()

	if t.enabled {
		if hit {
			t.hits.Add(1)
			key.e.cacheHits.Add(1)
		} else {
			t.misses.Add(1)
			key.e.cacheMisses.Add(1)
		}
	}
	if hit {
		return en.status, en.body, false, nil
	}
	if found {
		waiting.Add(1)
		defer waiting.Add(-1)
		select {
		case <-en.done:
			return en.status, en.body, true, nil
		case <-ctx.Done():
			return 0, nil, true, ctx.Err()
		}
	}

	// The entry MUST resolve even if fn panics (the panic then continues
	// up to the ServeHTTP recovery middleware): leaving it in the map with
	// done never closed would hang every later identical query.
	defer t.finish(sh, en)
	en.status, en.body = fn()
	return en.status, en.body, false, nil
}

// finish resolves a leader's entry. A 200 body that fits the shard budget
// is linked into the LRU, evicting least-recently-used entries until the
// shard fits again; any other outcome removes the entry. Either happens
// only while the entry is still the map's entry for its key — one purged
// in flight is already gone and stays gone — and a retired index's entry
// is never linked, even one its leader created after the purge ran.
func (t *queryTable) finish(sh *tableShard, en *queryEntry) {
	if en.status == 0 { // fn panicked before producing an outcome
		en.status, en.body = jsonBody(http.StatusInternalServerError,
			errorResponse{Error: "internal error (panic recovered)"})
	}
	size := int64(len(en.body)) + cacheItemOverhead
	fits := en.status == http.StatusOK && size <= t.shardCap
	kept := false
	var evicted []*queryEntry
	sh.mu.Lock()
	if sh.items[en.key] == en {
		if fits && !en.key.e.retired.Load() {
			kept = true
			en.cached, en.size = true, size
			sh.pushFront(en)
			sh.bytes += size
			for sh.bytes > t.shardCap && sh.tail != nil {
				victim := sh.tail
				sh.unlink(victim)
				delete(sh.items, victim.key)
				sh.bytes -= victim.size
				evicted = append(evicted, victim)
			}
		} else {
			delete(sh.items, en.key)
		}
	}
	sh.mu.Unlock()
	close(en.done)

	if !kept {
		return
	}
	delta := size
	for _, v := range evicted {
		delta -= v.size
		v.key.e.cacheBytes.Add(-v.size)
	}
	t.evictions.Add(int64(len(evicted)))
	t.bytes.Add(delta)
	en.key.e.cacheBytes.Add(size)
}

// purgeEntry retires e and drops every entry belonging to it, cached or
// in flight — called when an index is deleted or replaced, so retired
// entries release their share of the byte budget immediately instead of
// aging out, and their late leaders find nothing to file a body under.
func (t *queryTable) purgeEntry(e *entry) {
	e.retired.Store(true) // before any shard lock: finish checks it under one
	var total int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for key, en := range sh.items {
			if key.e != e {
				continue
			}
			delete(sh.items, key)
			if en.cached {
				sh.unlink(en)
				sh.bytes -= en.size
				total += en.size
			}
		}
		sh.mu.Unlock()
	}
	if total != 0 {
		t.bytes.Add(-total)
		e.cacheBytes.Add(-total)
	}
}

// --- intrusive LRU list ----------------------------------------------------

// pushFront links en as most recently used; callers hold mu.
func (sh *tableShard) pushFront(en *queryEntry) {
	en.prev = nil
	en.next = sh.head
	if sh.head != nil {
		sh.head.prev = en
	}
	sh.head = en
	if sh.tail == nil {
		sh.tail = en
	}
}

// unlink removes en from the LRU list; callers hold mu.
func (sh *tableShard) unlink(en *queryEntry) {
	if en.prev != nil {
		en.prev.next = en.next
	} else {
		sh.head = en.next
	}
	if en.next != nil {
		en.next.prev = en.prev
	} else {
		sh.tail = en.prev
	}
	en.prev, en.next = nil, nil
}

// moveToFront marks en most recently used; callers hold mu.
func (sh *tableShard) moveToFront(en *queryEntry) {
	if sh.head == en {
		return
	}
	sh.unlink(en)
	sh.pushFront(en)
}
