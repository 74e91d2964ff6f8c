package server

import (
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	polyfit "repro"
	"repro/internal/persist"
)

// Durability wiring: the serving layer's registry can be backed by a data
// directory (internal/persist). The contract, once a data dir is
// configured:
//
//   - Create/restore writes a CRC-checked snapshot of the index before the
//     request is acknowledged.
//   - An acknowledged insert (HTTP 200 counting it in "inserted") has been
//     fsynced to the index's write-ahead log before the response was sent,
//     and therefore survives a crash — SIGKILL included.
//   - On boot the registry is recovered: every snapshot is loaded (no
//     re-fitting; dynamic blobs carry their fitted base) and the WAL is
//     replayed on top. Corrupt or truncated files are reported and skipped
//     — recovery never panics and never blocks the healthy indexes.
//   - A background snapshotter periodically folds WAL-covered inserts into
//     a fresh snapshot and drops the covered log prefix, bounding both
//     recovery time and log growth. Forced rebuilds snapshot synchronously
//     (PR 2's parallel construction keeps that cheap).
//
// WAL replay is idempotent: dynamic indexes reject duplicate keys exactly,
// so a log that overlaps its snapshot (crash between snapshot rename and
// log truncation) re-applies nothing.

// Config configures a durable server. The zero value (no DataDir) is a
// purely in-memory server identical to New().
type Config struct {
	// DataDir enables durability: snapshots and WALs live here, and the
	// registry is recovered from it on startup.
	DataDir string
	// SnapshotInterval is the background snapshotter period (default 15s).
	// Negative disables the background snapshotter (snapshots still happen
	// on create, restore, rebuild, and Close).
	SnapshotInterval time.Duration
	// Logf receives recovery and snapshotter diagnostics (default: discard).
	Logf func(format string, args ...any)

	// FS overrides the filesystem the data dir is accessed through
	// (default: the real OS filesystem). Fault-injection harnesses pass a
	// faultfs.FS here to exercise the degradation paths.
	FS persist.FS
	// Retry overrides the persistence retry policy (zero value selects
	// persist.DefaultRetry). Transient write/fsync failures are retried
	// with exponential backoff before a persistence operation is declared
	// failed and the degradation machinery engages.
	Retry persist.RetryPolicy

	// MaxConcurrentQueries bounds simultaneously executing query/batch
	// requests (default 4×GOMAXPROCS). MaxQueuedQueries bounds how many
	// more may wait for a slot (default 4× the concurrency limit); beyond
	// that, queries are shed with 429 + Retry-After. Inserts and admin
	// requests are never gated.
	MaxConcurrentQueries int
	MaxQueuedQueries     int
	// DefaultQueryTimeout is the query deadline applied when a request
	// carries no timeout_ms (default 5s; negative disables the default
	// deadline). An expired deadline abandons the query and answers 504.
	DefaultQueryTimeout time.Duration

	// CacheBytes bounds the server-side result cache (see cache.go):
	// completed point-query responses — certified bound included — are
	// kept keyed by (index, generation, range, eps_rel) and repeated
	// queries are answered without touching the index until an insert or
	// rebuild bumps the generation. 0 (the default) disables the cache;
	// the budget covers response bodies plus per-item overhead.
	CacheBytes int64

	// Join turns the server into a read replica of the leader at this
	// base URL (see follower.go): the registry is mirrored from the
	// leader's snapshots + WAL streams, reads are served locally at a
	// reported staleness, and writes are rejected with 409 + a Leader
	// hint header. Mutually exclusive with DataDir — the leader owns the
	// durable state; followers replicate in memory and re-join on
	// restart.
	Join string
	// Advertise is this node's public base URL: followers use it as
	// their ack-table identity, leaders report it in cluster status.
	Advertise string
	// ReplPollInterval is the follower's idle delay between sync cycles
	// (default 25ms); ReplWait the long-poll budget it requests per WAL
	// tail (default 200ms, capped server-side at 5s).
	ReplPollInterval time.Duration
	ReplWait         time.Duration
	// FollowerTTL bounds how long a silent follower's acknowledgement
	// keeps pinning WAL truncation on the leader (default 30s). A
	// follower that returns after expiry simply re-joins from a
	// snapshot.
	FollowerTTL time.Duration
}

// RecoverySummary reports what a durable server found in its data dir at
// boot.
type RecoverySummary struct {
	Indexes         int           // indexes restored into the registry
	Static          int           // of which static
	Dynamic         int           // of which dynamic
	ReplayedInserts int64         // WAL records applied on top of snapshots
	SkippedInserts  int64         // WAL records already covered by a snapshot
	CorruptSkipped  int           // indexes skipped due to corrupt/unreadable files
	TornWALBytes    int           // bytes dropped from torn WAL tails
	Duration        time.Duration // wall-clock recovery time
}

func (r RecoverySummary) String() string {
	return fmt.Sprintf("recovered %d indexes (%d static, %d dynamic), replayed %d WAL inserts (%d already in snapshots, %d torn bytes dropped), skipped %d corrupt, in %v",
		r.Indexes, r.Static, r.Dynamic, r.ReplayedInserts, r.SkippedInserts,
		r.TornWALBytes, r.CorruptSkipped, r.Duration.Round(time.Millisecond))
}

// NewDurable returns a Server backed by cfg.DataDir: existing indexes are
// recovered before it returns, and new work is persisted per the
// durability contract above. With an empty DataDir it behaves exactly like
// New and never returns an error.
func NewDurable(cfg Config) (*Server, error) {
	if cfg.Join != "" && cfg.DataDir != "" {
		return nil, errors.New("server: Join and DataDir are mutually exclusive — the leader owns the durable state, followers replicate in memory")
	}
	s := newServer()
	s.logf = cfg.Logf
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.epoch = time.Now().UnixNano()
	s.advertise = cfg.Advertise
	s.followerTTL = cfg.FollowerTTL
	if s.followerTTL <= 0 {
		s.followerTTL = 30 * time.Second
	}
	s.defaultTimeout = cfg.DefaultQueryTimeout
	if s.defaultTimeout == 0 {
		s.defaultTimeout = 5 * time.Second
	}
	maxConc := cfg.MaxConcurrentQueries
	if maxConc <= 0 {
		maxConc = 4 * runtime.GOMAXPROCS(0)
	}
	maxQueue := cfg.MaxQueuedQueries
	if maxQueue <= 0 {
		maxQueue = 4 * maxConc
	}
	s.adm = newAdmission(maxConc, maxQueue)
	s.cache = newQueryTable(cfg.CacheBytes)
	if cfg.DataDir == "" {
		if cfg.Join != "" {
			s.follower = newFollower(s, cfg)
			go s.follower.run()
		}
		return s, nil
	}
	store, err := persist.OpenFS(cfg.DataDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	if cfg.Retry != (persist.RetryPolicy{}) {
		store.SetRetryPolicy(cfg.Retry)
	}
	s.store = store
	if err := s.recover(); err != nil {
		return nil, err
	}
	interval := cfg.SnapshotInterval
	if interval == 0 {
		interval = 15 * time.Second
	}
	if interval > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.snapshotLoop(interval)
	}
	return s, nil
}

// Recovery returns the boot-time recovery summary (zero for in-memory
// servers).
func (s *Server) Recovery() RecoverySummary { return s.recovery }

// Durable reports whether the server persists to a data dir.
func (s *Server) Durable() bool { return s.store != nil }

// recover loads every index found in the data dir: snapshot first, then
// the WAL replayed on top. Damaged indexes are logged and skipped so one
// bad file never takes the whole registry down.
func (s *Server) recover() error {
	start := time.Now()
	names, err := s.store.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		e, replayed, skipped, torn, err := s.recoverIndex(name)
		if err != nil {
			s.recovery.CorruptSkipped++
			s.logf("polyfit-serve: skipping index %q: %v", name, err)
			continue
		}
		s.initRepl(e)
		s.mu.Lock()
		s.indexes[name] = e
		s.mu.Unlock()
		s.recovery.Indexes++
		if e.ins != nil {
			s.recovery.Dynamic++
		} else {
			s.recovery.Static++
		}
		s.recovery.ReplayedInserts += replayed
		s.recovery.SkippedInserts += skipped
		s.recovery.TornWALBytes += torn
	}
	s.recovery.Duration = time.Since(start)
	if len(names) > 0 {
		s.logf("polyfit-serve: %s", s.recovery)
	}
	return nil
}

// recoverIndex loads one index's snapshot (a shard manifest marks it as
// sharded: every shard snapshot is loaded and reassembled around the
// manifest's routing bounds) and replays each of its logs on top. A
// record routes back to the shard that logged it; duplicates — a crash
// between a snapshot and its log truncation — skip idempotently. An
// unreadable log is set aside and its part recovers to the snapshot; any
// other failure fails the whole index, since serving a sharded index with
// a hole in its key space would silently undercount.
func (s *Server) recoverIndex(name string) (e *entry, replayed, skipped int64, torn int, err error) {
	man, err := s.store.ReadShardManifest(name)
	switch {
	case err == nil:
		blobs := make([][]byte, man.Shards)
		for i := range blobs {
			if blobs[i], err = s.store.ReadShardSnapshot(name, i); err != nil {
				return nil, 0, 0, 0, fmt.Errorf("shard %d snapshot: %w", i, err)
			}
		}
		ix, err := polyfit.Assemble(man.Bounds, blobs)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("assemble shards: %w", err)
		}
		e = newEntry(ix)
	case errors.Is(err, os.ErrNotExist):
		blob, err := s.store.ReadSnapshot(name)
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, 0, 0, fmt.Errorf("no snapshot: %w", err)
		} else if err != nil {
			return nil, 0, 0, 0, err
		}
		if e, err = entryFromBlob(blob); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("snapshot payload: %w", err)
		}
	default:
		return nil, 0, 0, 0, fmt.Errorf("shard manifest: %w", err)
	}
	if e.ins == nil {
		// Static indexes never log inserts; a WAL here would be a bug, not
		// data, so just report it.
		if _, statErr := s.store.FS().Stat(s.store.WALPath(name)); statErr == nil {
			s.logf("polyfit-serve: ignoring unexpected WAL for static index %q", name)
		}
		return e, 0, 0, 0, nil
	}
	e.wals = make([]*persist.WAL, parts(e))
	for i := range e.wals {
		path := s.walPath(name, e, i)
		wal, recs, dropped, err := s.store.OpenWAL(path)
		if errors.Is(err, persist.ErrCorrupt) {
			s.logf("polyfit-serve: WAL %s of %q is corrupt (%v); recovering its part to the last snapshot", path, name, err)
			if err = s.store.SetAside(path); err == nil {
				wal, recs, dropped, err = s.store.OpenWAL(path)
			}
		}
		if err != nil {
			closeWALs(e.wals)
			return nil, 0, 0, 0, err
		}
		e.wals[i] = wal
		torn += dropped
		for _, r := range recs {
			if insErr := e.ins.Insert(r.Key, r.Measure); insErr != nil {
				if errors.Is(insErr, polyfit.ErrDuplicateKey) {
					skipped++
					continue
				}
				// Any other failure would silently drop an acknowledged,
				// fsynced insert — refuse to serve the index instead.
				closeWALs(e.wals)
				return nil, 0, 0, 0, fmt.Errorf("log %d replay insert %g: %w", i, r.Key, insErr)
			}
			replayed++
		}
	}
	e.replayed = replayed
	return e, replayed, skipped, torn, nil
}

// Path helpers: the only code that tells the two on-disk layouts apart. A
// plain index is one snapshot.pf (plus wal.pf when dynamic); a sharded
// dynamic index is a shard manifest plus one shard-i.snapshot.pf and
// shard-i.wal.pf per shard. Everything else loops over the parts.

// parts returns how many snapshot files the entry's durable form has —
// one per shard for a sharded dynamic index, else one — which is also its
// log count when dynamic.
func parts(e *entry) int {
	if e.shd != nil {
		return e.shd.NumShards()
	}
	return 1
}

// shardOf returns the log an insert at key k goes to.
func shardOf(e *entry, k float64) int {
	if e.shd == nil {
		return 0
	}
	return e.shd.ShardOf(k)
}

// walPath returns the file of the entry's i-th log.
func (s *Server) walPath(name string, e *entry, i int) string {
	if e.shd != nil {
		return s.store.ShardWALPath(name, i)
	}
	return s.store.WALPath(name)
}

// writePart writes the entry's i-th snapshot file.
func (s *Server) writePart(name string, e *entry, i int) error {
	if e.shd == nil {
		blob, err := e.ix.MarshalBinary()
		if err != nil {
			return fmt.Errorf("marshal %q: %w", name, err)
		}
		return s.store.WriteSnapshot(name, blob)
	}
	blob, err := e.shd.MarshalShard(i)
	if err != nil {
		return fmt.Errorf("marshal %q shard %d: %w", name, i, err)
	}
	return s.store.WriteShardSnapshot(name, i, blob)
}

// commitLayout is the commit point that makes recovery follow e's
// snapshots in place of old's: a sharded index writes its manifest; a
// plain one removes the manifest of a sharded predecessor (old, or files a
// skipped index left when old is nil). Over a plain old there is no
// manifest, and writing the plain snapshot was itself the commit.
func (s *Server) commitLayout(name string, e, old *entry) error {
	if e.shd != nil {
		return s.store.WriteShardManifest(name, persist.ShardManifest{Shards: e.shd.NumShards(), Bounds: e.shd.Bounds()})
	}
	if old != nil && old.shd == nil {
		return nil
	}
	if err := s.store.FS().Remove(s.store.ShardManifestPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// removeStale deletes, after the commit, the files recovery no longer
// reads: the other layout's snapshot and logs, shards beyond the new
// count, and the log of an index that became static.
func (s *Server) removeStale(name string, e *entry) error {
	var stale []string
	if e.shd != nil {
		stale = []string{s.store.SnapshotPath(name), s.store.WALPath(name)}
		if err := s.store.RemoveShardFilesFrom(name, parts(e)); err != nil {
			return err
		}
	} else {
		if err := s.store.RemoveShardFiles(name); err != nil {
			return err
		}
		if e.ins == nil {
			stale = []string{s.store.WALPath(name)}
		}
	}
	for _, path := range stale {
		if err := s.store.FS().Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

func closeWALs(wals []*persist.WAL) {
	for _, w := range wals {
		if w != nil {
			w.Close() //nolint:errcheck
		}
	}
}

// degrade marks the entry's persistence as sick: inserts are acknowledged
// durable:false and skip the logs until a forced snapshot heals it.
func (s *Server) degrade(name string, e *entry, err error) {
	e.degraded.Store(true)
	e.forceSnap.Store(true)
	e.persistErrors.Add(1)
	s.persistErrors.Add(1)
	s.logf("polyfit-serve: persistence for %q failed, degrading to snapshot-only durability: %v", name, err)
}

// snapshotLoop periodically persists dirty dynamic indexes (those with WAL
// records not yet folded into a snapshot).
func (s *Server) snapshotLoop(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if err := s.snapshotDirty(); err != nil {
				s.logf("polyfit-serve: background snapshot: %v", err)
			}
		}
	}
}

// entryDirty reports whether the entry has acknowledged inserts not yet
// folded into a snapshot, or a forced snapshot pending. A static entry is
// only ever dirty by force.
func entryDirty(e *entry) bool {
	if e.forceSnap.Load() {
		return true
	}
	for _, wal := range e.wals {
		if wal.Records() > 0 {
			return true
		}
	}
	return false
}

func (s *Server) snapshotDirty() error {
	s.mu.RLock()
	dirty := make(map[string]*entry)
	for name, e := range s.indexes {
		if entryDirty(e) {
			dirty[name] = e
		}
	}
	s.mu.RUnlock()
	var firstErr error
	for name, e := range dirty {
		if err := s.snapshotEntry(name, e); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SnapshotAll synchronously snapshots every dirty index. No-op for
// in-memory servers.
func (s *Server) SnapshotAll() error {
	if s.store == nil {
		return nil
	}
	return s.snapshotDirty()
}

// snapshotEntry writes one registered index's snapshot and drops the log
// prefix it covers, holding back what a live follower still needs.
func (s *Server) snapshotEntry(name string, e *entry) error {
	if s.store == nil {
		return nil
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	// Re-check registry membership under snapMu: a concurrent DELETE or
	// restore may have retired this entry after it was collected, and
	// writing its snapshot now would resurrect the index on the next boot
	// (dropPersisted holds the same lock while removing the files).
	s.mu.RLock()
	current := s.indexes[name] == e
	s.mu.RUnlock()
	if !current {
		return nil
	}
	return s.snapshotLocked(name, e, true)
}

// snapshotLocked writes each part's snapshot and drops the log prefix it
// covers; the caller holds e.snapMu. Each log's size is read BEFORE its
// part is marshalled: every record below that offset was applied to the
// in-memory index before it reached the log, so the snapshot (taken
// after) is guaranteed to contain it — records that race in later stay in
// the log and replay idempotently. gated holds the truncation back to
// what live followers have acknowledged; an ungated snapshot empties the
// covered prefix regardless (followers re-join from the snapshot).
func (s *Server) snapshotLocked(name string, e *entry, gated bool) error {
	// Clear the force flag before reading the cut: a failure signalled
	// after this point re-sets it and the next cycle snapshots again.
	e.forceSnap.Store(false)
	// A degraded entry has acknowledged inserts that never reached its
	// logs (they were sick when the inserts arrived). This snapshot covers
	// them — marshalling happens after they were applied — so on success
	// the logs are RESET (rewritten empty, file handles reopened) rather
	// than prefix-truncated, and the degradation clears: the disk proved
	// itself writable again. While degraded, inserts skip the logs, so no
	// record can race in between the cut and the reset.
	degraded := e.degraded.Load()
	persistFail := func(err error) error {
		e.forceSnap.Store(true)
		e.persistErrors.Add(1)
		s.persistErrors.Add(1)
		return err
	}
	for i := 0; i < parts(e); i++ {
		var cut int64
		if i < len(e.wals) {
			cut = e.wals[i].Size()
		}
		if err := s.writePart(name, e, i); err != nil {
			return persistFail(err)
		}
		if i >= len(e.wals) {
			continue
		}
		if degraded {
			if err := e.wals[i].Reset(); err != nil {
				return persistFail(fmt.Errorf("reset %q log %d: %w", name, i, err))
			}
		} else if err := s.truncateLog(name, e, i, cut, gated); err != nil {
			return persistFail(err)
		}
	}
	if degraded {
		e.degraded.Store(false)
		// The reset logs no longer carry the records this snapshot
		// absorbed; followers must re-join from it.
		s.bumpInstance(e)
		s.logf("polyfit-serve: %q healed: snapshot persisted the non-durable inserts and the logs were reset", name)
	}
	s.noteSnapshot(e)
	return nil
}

func (s *Server) noteSnapshot(e *entry) {
	e.snapshots.Add(1)
	e.lastSnapUnix.Store(time.Now().Unix())
	s.snapshotsWritten.Add(1)
}

// errPersist marks a create or restore that failed on the data dir rather
// than on the request: the handlers answer it with 500, not 400.
var errPersist = errors.New("persist")

// persistEntry writes the durable state of e, a just-built entry about to
// be registered under name, replacing old (nil for a create). The caller
// holds adminMu and, when old is set, old.snapMu. The sequence, one loop
// per step over the entry's parts:
//
//  1. Fold old's logs into old's own snapshot and empty them, so no log
//     the new index may adopt still holds the old index's records.
//  2. Remove log files of the new index that no open handle of old owns
//     (a skipped-as-corrupt predecessor may have left records in them).
//  3. Write the new snapshots, then commit: write the shard manifest, or
//     remove one for a plain index.
//  4. Close old's logs, remove the files recovery no longer reads, and
//     open fresh logs for a dynamic entry.
//
// A failure in steps 1-3 returns an error wrapping errPersist and leaves
// old, with every acknowledged insert, live and recoverable; a create's
// files are removed. After the commit nothing fails: a fresh log that
// cannot be opened degrades the new entry until a snapshot heals it.
//
// Known gap: a sharded restore over a sharded index overwrites the old
// shard snapshots in place before its manifest, so a failure between the
// two can leave shards that no longer assemble.
func (s *Server) persistEntry(name string, e, old *entry) (err error) {
	if s.store == nil {
		return nil
	}
	defer func() {
		if err == nil {
			return
		}
		if old == nil {
			s.store.Remove(name) //nolint:errcheck
		}
		err = fmt.Errorf("%w %q: %w", errPersist, name, err)
	}()
	owned := make(map[string]bool)
	if old != nil && len(old.wals) > 0 {
		if err := s.snapshotLocked(name, old, false); err != nil {
			return err
		}
		for i := range old.wals {
			owned[s.walPath(name, old, i)] = true
		}
	}
	if e.ins != nil {
		for i := 0; i < parts(e); i++ {
			if path := s.walPath(name, e, i); !owned[path] {
				if err := s.store.FS().Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
					return err
				}
			}
		}
	}
	// A write whose rename landed but whose directory fsync failed is
	// already what recovery reads, so it counts as done; the entry is
	// degraded below so a forced snapshot syncs the directory again.
	var unsynced error
	landed := func(err error) bool {
		if errors.Is(err, persist.ErrUnsynced) {
			unsynced = err
			return true
		}
		return err == nil
	}
	for i := 0; i < parts(e); i++ {
		if err := s.writePart(name, e, i); !landed(err) {
			return err
		}
	}
	if err := s.commitLayout(name, e, old); !landed(err) {
		return err
	}
	if unsynced != nil {
		s.degrade(name, e, unsynced)
	}
	if old != nil {
		closeWALs(old.wals)
	}
	if err := s.removeStale(name, e); err != nil {
		s.logf("polyfit-serve: %q: removing stale files: %v", name, err)
	}
	if e.ins != nil {
		e.wals = make([]*persist.WAL, parts(e))
		for i := range e.wals {
			var werr error
			if e.wals[i], werr = s.store.OpenFreshWAL(s.walPath(name, e, i)); werr != nil {
				s.degrade(name, e, werr)
			}
		}
	}
	s.noteSnapshot(e)
	return nil
}

// dropPersisted tears down an entry's durable state. Called with adminMu
// held and the entry already removed from the registry; snapMu excludes an
// in-flight background snapshot of the same entry, whose membership check
// then fails, so the files cannot be re-created after removal.
func (s *Server) dropPersisted(name string, e *entry) error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	closeWALs(e.wals)
	if s.store == nil {
		return nil
	}
	return s.store.Remove(name)
}

// Close stops the background snapshotter, takes a final snapshot of every
// dirty index, and releases WAL handles. The HTTP mux keeps answering
// queries but durability guarantees end here; Close is for graceful
// shutdown and tests. It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		// Refuse new requests from here on; callers wanting in-flight work
		// to finish first should Drain before Close.
		s.draining.Store(true)
		if s.follower != nil {
			s.follower.close()
		}
		if s.stop != nil {
			close(s.stop)
			<-s.done
		}
		err = s.SnapshotAll()
		s.mu.RLock()
		defer s.mu.RUnlock()
		for _, e := range s.indexes {
			closeWALs(e.wals)
		}
	})
	return err
}

// RestoreRequest carries a previously marshalled blob (GET /marshal, or
// Index.MarshalBinary) to load under a name.
type RestoreRequest struct {
	Blob string `json:"blob"` // base64 (std encoding)
}

// handleRestore implements POST /v1/indexes/{name}/restore: register the
// blob under the name, replacing any existing index. Dynamic blobs come
// back dynamic — buffer, options, and fallback included. With a data dir
// the blob is persisted (and any previous WAL dropped) before the request
// is acknowledged; see persistEntry for what a failure leaves behind.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	name := r.PathValue("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, errors.New("name is required"))
		return
	}
	var req RestoreRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	raw, err := base64.StdEncoding.DecodeString(req.Blob)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode blob: %w", err))
		return
	}
	e, err := entryFromBlob(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	s.mu.RLock()
	old := s.indexes[name]
	s.mu.RUnlock()
	if old != nil {
		// Exclude an in-flight background snapshot of the entry being
		// replaced, and hold the lock across the registry swap so no later
		// one can overwrite the restored snapshot (its membership check
		// fails once the swap is visible).
		old.snapMu.Lock()
		defer old.snapMu.Unlock()
	}
	if err := s.persistEntry(name, e, old); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.initRepl(e)
	s.mu.Lock()
	s.indexes[name] = e
	s.mu.Unlock()
	if old != nil {
		// The replaced entry's cached bodies are unreachable (the key holds
		// the old pointer); release their bytes eagerly.
		s.cache.purgeEntry(old)
	}
	writeJSON(w, http.StatusOK, s.statsOf(name, e))
}

// ServerStats are the global durability counters exposed at GET /v1/stats.
type ServerStats struct {
	Indexes            int    `json:"indexes"`
	ShardedIndexes     int    `json:"sharded_indexes,omitempty"`
	TotalShards        int    `json:"total_shards,omitempty"` // across sharded indexes
	Durable            bool   `json:"durable"`
	DataDir            string `json:"data_dir,omitempty"`
	SnapshotsWritten   int64  `json:"snapshots_written"`
	WALAppendedRecords int64  `json:"wal_appended_records"`
	RecoveredIndexes   int    `json:"recovered_indexes"`
	ReplayedInserts    int64  `json:"replayed_inserts"`
	CorruptSkipped     int    `json:"corrupt_skipped,omitempty"`
	TornWALBytes       int    `json:"torn_wal_bytes,omitempty"`

	// Request-lifecycle counters (admission control, coalescing, deadlines,
	// panic recovery — see admission.go). InFlight/QueuedQueries/
	// CoalesceWaiting are point-in-time gauges; the rest are cumulative.
	// TimedOutQueries counts genuine deadline expiries (504);
	// CanceledQueries counts client disconnects (499) — kept apart so
	// disconnect storms don't masquerade as serving latency.
	// ExecutedQueries counts actual index traversals (each point query and
	// each batch request counts one): cache hits and coalesced followers
	// never move it.
	InFlight         int64 `json:"in_flight"`
	QueuedQueries    int64 `json:"queued_queries"`
	ShedQueries      int64 `json:"shed_queries"`
	CoalescedQueries int64 `json:"coalesced_queries"`
	CoalesceWaiting  int64 `json:"coalesce_waiting,omitempty"`
	TimedOutQueries  int64 `json:"timed_out_queries"`
	CanceledQueries  int64 `json:"canceled_queries"`
	ExecutedQueries  int64 `json:"executed_queries"`
	PanicsRecovered  int64 `json:"panics_recovered"`

	// BatchedQueries is always 0. It counted point queries answered by a
	// shared sweep of the admission queue, a path the server no longer
	// has; the field stays because stats readers such as perfbench still
	// decode it.
	BatchedQueries int64 `json:"batched_queries"`

	// Result cache (see cache.go; all zero unless Config.CacheBytes > 0).
	// CacheBytes is a gauge of bytes currently held against the
	// CacheCapacity budget; the rest are cumulative.
	CacheEnabled   bool  `json:"cache_enabled"`
	CacheCapacity  int64 `json:"cache_capacity_bytes,omitempty"`
	CacheBytes     int64 `json:"cache_bytes,omitempty"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`

	// Degradation counters: indexes currently serving with a sick WAL, the
	// total failed persistence operations, and inserts acknowledged
	// without the durability guarantee.
	DegradedIndexes   int   `json:"degraded_indexes"`
	PersistErrors     int64 `json:"persist_errors"`
	NonDurableInserts int64 `json:"non_durable_inserts"`

	// PerIndexShards maps each sharded index to its per-shard stats rows,
	// so one /v1/stats round trip shows the whole shard fleet.
	PerIndexShards map[string][]ShardStats `json:"per_index_shards,omitempty"`

	// Replication (see replication.go / follower.go). Role is "leader"
	// (the default, even with no followers attached) or "follower".
	// Leaders list every follower's acknowledged watermark; followers
	// report the leader they stream from, how stale their reads may be
	// (milliseconds since the last fully-caught-up poll), the sequence
	// vector they have applied per index, and their join/apply counters.
	Role          string             `json:"role"`
	Leader        string             `json:"leader,omitempty"`
	StalenessMS   int64              `json:"staleness_ms,omitempty"`
	AckWatermark  map[string][]int64 `json:"ack_watermark,omitempty"`
	Followers     []FollowerStat     `json:"followers,omitempty"`
	SnapshotSyncs int64              `json:"snapshot_syncs,omitempty"`
	ReplApplied   int64              `json:"repl_applied_records,omitempty"`
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.indexes)
	type shardedIx struct {
		name string
		e    *entry
	}
	var sharded []shardedIx
	degradedIndexes := 0
	for name, e := range s.indexes {
		if _, ok := e.ix.(polyfit.Sharder); ok {
			sharded = append(sharded, shardedIx{name, e})
		}
		if e.degraded.Load() {
			degradedIndexes++
		}
	}
	s.mu.RUnlock()
	st := ServerStats{
		Indexes:            n,
		Durable:            s.store != nil,
		SnapshotsWritten:   s.snapshotsWritten.Load(),
		WALAppendedRecords: s.walAppended.Load(),
		RecoveredIndexes:   s.recovery.Indexes,
		ReplayedInserts:    s.recovery.ReplayedInserts,
		CorruptSkipped:     s.recovery.CorruptSkipped,
		TornWALBytes:       s.recovery.TornWALBytes,
		InFlight:           s.httpInFlight.Load(),
		QueuedQueries:      s.adm.queued.Load(),
		ShedQueries:        s.adm.shed.Load(),
		CoalescedQueries:   s.coalesced.Load(),
		CoalesceWaiting:    s.coalesceWait.Load(),
		TimedOutQueries:    s.timedOut.Load(),
		CanceledQueries:    s.canceled.Load(),
		ExecutedQueries:    s.executed.Load(),
		PanicsRecovered:    s.panics.Load(),
		DegradedIndexes:    degradedIndexes,
		PersistErrors:      s.persistErrors.Load(),
		NonDurableInserts:  s.nonDurableIns.Load(),
		Role:               "leader",
	}
	if s.follower != nil {
		st.Role = "follower"
		st.Leader = s.follower.leader
		st.StalenessMS = s.follower.stalenessMS()
		st.AckWatermark = s.follower.watermark()
		st.SnapshotSyncs = s.follower.synced.Load()
		st.ReplApplied = s.follower.applied.Load()
	} else {
		st.Followers = s.acks.stats(s.followerTTL)
	}
	for _, sx := range sharded {
		rows := s.statsOf(sx.name, sx.e).ShardStats
		st.ShardedIndexes++
		st.TotalShards += len(rows)
		if st.PerIndexShards == nil {
			st.PerIndexShards = make(map[string][]ShardStats, len(sharded))
		}
		st.PerIndexShards[sx.name] = rows
	}
	if s.cache.enabled {
		st.CacheEnabled = true
		st.CacheCapacity = s.cache.capacity()
		st.CacheBytes = s.cache.bytes.Load()
		st.CacheHits = s.cache.hits.Load()
		st.CacheMisses = s.cache.misses.Load()
		st.CacheEvictions = s.cache.evictions.Load()
	}
	if s.store != nil {
		st.DataDir = s.store.Dir()
	}
	writeJSON(w, http.StatusOK, st)
}

// entryFromBlob restores a blob through polyfit.Open, which sniffs the
// magic and returns the right variant behind the uniform Index interface —
// dynamic blobs come back insertable with their delta buffer and options
// intact, sharded ones with their per-shard capabilities.
func entryFromBlob(raw []byte) (*entry, error) {
	if polyfit.DetectBlob(raw) == polyfit.BlobStatic2D {
		return nil, errors.New("2D index blobs are not servable (no range endpoint)")
	}
	ix, err := polyfit.Open(raw)
	if err != nil {
		return nil, err
	}
	return newEntry(ix), nil
}
