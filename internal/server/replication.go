package server

// Leader-side replication (see internal/cluster for the protocol): the
// server streams each dynamic index's WAL tail to read replicas, tracks
// the watermark every follower has acknowledged, and holds WAL truncation
// back to the slowest live follower so a replica can always resume from
// the log.
//
// Sequence space. Each WAL is a stream of records numbered from the
// moment its entry registered; the file holds the stream suffix starting
// at repl.start (everything below was folded into a snapshot and
// truncated). A record's file offset is therefore
// WALHeaderSize + (seq − start)·WALRecordSize, valid only while start is
// pinned — every tail read happens under repl.mu, the same lock the
// truncation path advances start under.
//
// Incarnations. Sequence numbers are only comparable within one
// (epoch, instance): epoch identifies this server boot, instance one
// registration of the index. An explicit rebuild or a degraded-WAL reset
// rewrites history (the snapshot absorbs records the log no longer
// carries, or the base re-fits), so both bump the instance; restores and
// re-creates produce a new entry and get a fresh instance on
// registration. A follower presenting stale coordinates is answered 410
// and re-joins from a fresh snapshot — safe, because replay is
// idempotent.

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/persist"
)

// replState is an entry's leader-side replication coordinates.
type replState struct {
	mu sync.Mutex
	// instance identifies this incarnation of the index's sequence
	// space; bumped whenever the WAL stops being a faithful suffix of
	// the insert history (explicit rebuild, degraded reset). guarded by mu.
	instance uint64
	// start is, per WAL, the sequence number of the first record still
	// in the file. guarded by mu.
	start []int64
}

// initRepl assigns a fresh incarnation to a just-built entry. Called
// before the entry is published, so the lock is uncontended — held anyway
// to keep the guard invariant unconditional.
func (s *Server) initRepl(e *entry) {
	e.repl.mu.Lock()
	defer e.repl.mu.Unlock()
	e.repl.instance = s.instanceSeq.Add(1)
	e.repl.start = make([]int64, len(e.wals))
}

// bumpInstance starts a new incarnation: followers streaming the old one
// get 410 on their next poll and re-join from a fresh snapshot. The
// current WAL contents become the new stream's prefix (start resets to
// zero).
func (s *Server) bumpInstance(e *entry) {
	e.repl.mu.Lock()
	defer e.repl.mu.Unlock()
	e.repl.instance = s.instanceSeq.Add(1)
	for i := range e.repl.start {
		e.repl.start[i] = 0
	}
}

// replCoords reads the entry's incarnation and per-stream end sequences
// (next to be assigned) in one consistent view.
func (s *Server) replCoords(e *entry) (instance uint64, seqs []int64) {
	e.repl.mu.Lock()
	defer e.repl.mu.Unlock()
	seqs = make([]int64, len(e.repl.start))
	for i := range e.repl.start {
		seqs[i] = e.repl.start[i] + e.wals[i].Records()
	}
	return e.repl.instance, seqs
}

// truncateLog drops the prefix of the entry's log-th WAL below cut. When
// gated, a live follower that has only acknowledged an earlier sequence
// holds the cut back to its watermark so the records it still needs stay
// streamable; dead followers stop pinning the log once their ack ages
// past the follower TTL. Ungated, a lagging follower's cursor falls below
// the stream origin and it re-joins from a snapshot. Advances the stream
// origin to match.
func (s *Server) truncateLog(name string, e *entry, log int, cut int64, gated bool) error {
	e.repl.mu.Lock()
	defer e.repl.mu.Unlock()
	if floor, ok := s.acks.floor(name, e.repl.instance, log, s.followerTTL); ok && gated {
		off := persist.WALHeaderSize + (floor-e.repl.start[log])*persist.WALRecordSize
		if off < persist.WALHeaderSize {
			off = persist.WALHeaderSize
		}
		if off < cut {
			cut = off
		}
	}
	if cut <= persist.WALHeaderSize {
		return nil
	}
	if err := e.wals[log].TruncateTo(cut); err != nil {
		return err
	}
	e.repl.start[log] += (cut - persist.WALHeaderSize) / persist.WALRecordSize
	return nil
}

// --- follower ack table -----------------------------------------------------

// replAcks tracks what every follower has acknowledged. A tail poll's
// from-cursor is the acknowledgement: records below it are applied on
// that follower.
type replAcks struct {
	mu        sync.Mutex
	followers map[string]*followerAck // guarded by mu
}

// followerAck rows live inside replAcks.followers and are only reached
// through it, so every access already holds the owning table's mu (a
// cross-struct guard the lockguard annotation grammar cannot name).
type followerAck struct {
	lastSeen time.Time
	acks     map[string]ackVector // keyed by index name
}

// ackVector is one follower's acknowledged sequence vector for one index
// incarnation.
type ackVector struct {
	instance uint64
	seqs     []int64
}

// record notes a follower's tail poll: it is alive now, and has applied
// everything below seqs for the named index incarnation.
func (a *replAcks) record(follower, index string, instance uint64, seqs []int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.followers == nil {
		a.followers = make(map[string]*followerAck)
	}
	f := a.followers[follower]
	if f == nil {
		f = &followerAck{acks: make(map[string]ackVector)}
		a.followers[follower] = f
	}
	f.lastSeen = time.Now()
	f.acks[index] = ackVector{instance: instance, seqs: append([]int64(nil), seqs...)}
}

// floor returns the minimum acknowledged sequence for (index, instance,
// log) across followers seen within ttl, and whether any such follower
// exists.
func (a *replAcks) floor(index string, instance uint64, log int, ttl time.Duration) (int64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cutoff := time.Now().Add(-ttl)
	var floor int64
	found := false
	for _, f := range a.followers {
		if f.lastSeen.Before(cutoff) {
			continue
		}
		v, ok := f.acks[index]
		if !ok || v.instance != instance || log >= len(v.seqs) {
			continue
		}
		if !found || v.seqs[log] < floor {
			floor = v.seqs[log]
			found = true
		}
	}
	return floor, found
}

// FollowerStat is one follower's row in /v1/stats: its ID, how long ago
// it last polled, and the sequence watermark it has acknowledged per
// index.
type FollowerStat struct {
	ID           string             `json:"id"`
	LastSeenMS   int64              `json:"last_seen_ms"`
	AckWatermark map[string][]int64 `json:"ack_watermark"`
	WithinTTL    bool               `json:"within_ttl"`
}

// stats snapshots the ack table for /v1/stats.
func (a *replAcks) stats(ttl time.Duration) []FollowerStat {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	out := make([]FollowerStat, 0, len(a.followers))
	for id, f := range a.followers {
		st := FollowerStat{
			ID:           id,
			LastSeenMS:   now.Sub(f.lastSeen).Milliseconds(),
			AckWatermark: make(map[string][]int64, len(f.acks)),
			WithinTTL:    now.Sub(f.lastSeen) <= ttl,
		}
		for name, v := range f.acks {
			st.AckWatermark[name] = append([]int64(nil), v.seqs...)
		}
		out = append(out, st)
	}
	return out
}

// --- replication endpoints --------------------------------------------------

// maxTailRecords caps how many records one tail frame carries (~1.3 MiB
// per stream); a further-behind follower just polls again.
const maxTailRecords = 65536

// maxTailWait caps the long-poll budget a follower may request.
const maxTailWait = 5 * time.Second

// handleClusterStatus implements GET /v1/cluster/status: the node's role
// and every index's replication coordinates, the map a follower (or the
// router's health probe) steers by.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	st := cluster.NodeStatus{
		Role:      "leader",
		Epoch:     s.epoch,
		Advertise: s.advertise,
	}
	if s.follower != nil {
		st.Role = "follower"
		st.Leader = s.follower.leader
		st.StalenessMS = s.follower.stalenessMS()
	}
	s.mu.RLock()
	entries := make(map[string]*entry, len(s.indexes))
	for name, e := range s.indexes {
		entries[name] = e
	}
	s.mu.RUnlock()
	for name, e := range entries {
		instance, seqs := s.replCoords(e)
		st.Indexes = append(st.Indexes, cluster.IndexStatus{
			Name:     name,
			Dynamic:  e.ins != nil,
			Instance: instance,
			Seqs:     seqs,
		})
	}
	sortIndexStatus(st.Indexes)
	writeJSON(w, http.StatusOK, st)
}

func sortIndexStatus(rows []cluster.IndexStatus) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
}

// handleClusterSnapshot implements GET /v1/cluster/snapshot/{name}: the
// index's current blob, stamped with the coordinates it covers. The
// sequence vector is read BEFORE marshalling: every record below it was
// applied to memory before it reached the log, so the blob taken after
// is guaranteed to contain it — a tail started at the reported vector
// replays at most idempotent duplicates, never misses a record.
func (s *Server) handleClusterSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerRepl(w) {
		return
	}
	_, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	instance, seqs := s.replCoords(e)
	blob, err := e.ix.MarshalBinary()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Polyfit-Epoch", strconv.FormatInt(s.epoch, 10))
	h.Set("X-Polyfit-Instance", strconv.FormatUint(instance, 10))
	h.Set("X-Polyfit-Seqs", cluster.FormatSeqs(seqs))
	w.WriteHeader(http.StatusOK)
	w.Write(blob) //nolint:errcheck
}

// handleClusterTail implements GET /v1/cluster/wal/{name}: stream the
// records from the follower's cursor to the current end of each WAL,
// long-polling up to wait_ms when the follower is caught up. The cursor
// is also the follower's acknowledgement and is recorded before the read.
// Any coordinate mismatch — wrong epoch, wrong instance, a cursor below
// the stream origin — answers 410 Gone: resync from the snapshot.
func (s *Server) handleClusterTail(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerRepl(w) {
		return
	}
	name, e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	epoch, err := strconv.ParseInt(q.Get("epoch"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad epoch: %w", err))
		return
	}
	instance, err := strconv.ParseUint(q.Get("instance"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad instance: %w", err))
		return
	}
	from, err := cluster.ParseSeqs(q.Get("from"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var wait time.Duration
	if ms := q.Get("wait_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad wait_ms %q", ms))
			return
		}
		wait = time.Duration(v) * time.Millisecond
		if wait > maxTailWait {
			wait = maxTailWait
		}
	}
	nlogs := len(e.wals)
	if nlogs == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("index %q has no replication streams (static or non-durable)", name))
		return
	}
	if len(from) != nlogs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cursor has %d streams, index has %d", len(from), nlogs))
		return
	}
	if follower := q.Get("follower"); follower != "" {
		s.acks.record(follower, name, instance, from)
	}
	deadline := time.Now().Add(wait)
	for {
		tail, ok := s.readTail(e, epoch, instance, from)
		if !ok {
			writeError(w, http.StatusGone, fmt.Errorf("stream window gone for %q: resync from snapshot", name))
			return
		}
		hasRecords := false
		for _, f := range tail.Frames {
			if len(f.Records) > 0 {
				hasRecords = true
				break
			}
		}
		if hasRecords || time.Now().After(deadline) || r.Context().Err() != nil {
			body := tail.MarshalBinary()
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			w.Write(body) //nolint:errcheck
			return
		}
		select {
		case <-r.Context().Done():
			// Poll again once to produce a final (possibly empty) body.
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// readTail collects one frame per stream from the follower's cursor,
// holding repl.mu across the file reads so a concurrent truncation cannot
// shift the seq↔offset mapping mid-read. Reports !ok when the follower's
// coordinates no longer address this incarnation's log.
func (s *Server) readTail(e *entry, epoch int64, instance uint64, from []int64) (*cluster.Tail, bool) {
	e.repl.mu.Lock()
	defer e.repl.mu.Unlock()
	if epoch != s.epoch || instance != e.repl.instance {
		return nil, false
	}
	t := &cluster.Tail{Epoch: s.epoch, Instance: instance}
	for log := range from {
		wal := e.wals[log]
		start := e.repl.start[log]
		end := start + wal.Records()
		if from[log] < start || from[log] > end {
			return nil, false
		}
		frame := cluster.TailFrame{Log: log, From: from[log], End: end}
		if from[log] < end {
			offset := persist.WALHeaderSize + (from[log]-start)*persist.WALRecordSize
			recs, _, err := wal.ReadFrom(offset)
			if err != nil {
				// The file changed underneath us (entry retired, WAL
				// closed): the stream is gone, not the server.
				return nil, false
			}
			if len(recs) > maxTailRecords {
				recs = recs[:maxTailRecords]
			}
			frame.Records = recs
		}
		t.Frames = append(t.Frames, frame)
	}
	return t, true
}

// rejectFollowerRepl turns away snapshot/tail requests on a follower
// (chained replication is not supported); the X-Polyfit-Leader header
// points the caller at the node that can serve them.
func (s *Server) rejectFollowerRepl(w http.ResponseWriter) bool {
	if s.follower == nil {
		return false
	}
	w.Header().Set("X-Polyfit-Leader", s.follower.leader)
	writeError(w, http.StatusConflict,
		fmt.Errorf("this node is a read replica of %s; fetch snapshots and tails from the leader", s.follower.leader))
	return true
}

// rejectFollowerWrite answers mutating requests on a follower with 409
// Conflict and a Leader hint header: the registry is owned by the
// replication stream, and a locally-accepted write would silently fork it.
func (s *Server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if s.follower == nil {
		return false
	}
	w.Header().Set("X-Polyfit-Leader", s.follower.leader)
	writeError(w, http.StatusConflict,
		fmt.Errorf("read-only follower replicating from %s; send writes to the leader", s.follower.leader))
	return true
}
