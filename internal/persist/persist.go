// Package persist is the durability layer under the PolyFit serving stack:
// per-index atomic snapshot files plus a write-ahead log of acknowledged
// inserts. The design is the classic snapshot+WAL pair:
//
//   - A snapshot is one serialised index blob (static or dynamic — the
//     blob's own magic says which) wrapped in a CRC-checked envelope and
//     written atomically: temp file in the same directory, fsync, rename
//     over the live name, fsync the directory. Readers therefore see either
//     the old snapshot or the new one, never a torn mix, even across a
//     crash mid-write.
//
//   - The WAL records every insert after it was applied in memory and
//     before it is acknowledged to the client; each 20-byte record carries
//     its own CRC. On recovery the snapshot is loaded and the WAL replayed
//     on top; a torn final record (the normal crash artefact) truncates the
//     tail, while a corrupt header rejects the whole file — reported to the
//     caller, never a panic. Replay is idempotent because dynamic indexes
//     reject duplicate keys exactly, so a WAL that overlaps its snapshot
//     (crash between snapshot rename and log truncation) is harmless.
//
//   - After a snapshot the covered WAL prefix is dropped (TruncateTo) by
//     atomically rewriting the file with only the uncovered tail, keeping
//     log growth bounded by the insert rate between snapshots.
//
// Layout: one subdirectory per index under the data dir (directory names
// encode the index name reversibly), holding "snapshot.pf" and "wal.pf".
package persist

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	snapMagic   = uint32(0x5046534E) // "PFSN"
	snapVersion = uint16(1)

	// snapHeaderSize = magic(4) + version(2) + reserved(2) + payloadLen(8) +
	// crc(4).
	snapHeaderSize = 20

	snapshotFile = "snapshot.pf"
	walFile      = "wal.pf"

	// Sharded dynamic indexes persist one snapshot+WAL pair per shard plus
	// a manifest recording the shard layout; the manifest is the commit
	// point of a sharded index (written last, checked first on recovery).
	shardManifestFile = "shards.pf"

	manifestMagic   = uint32(0x50465348) // "PFSH"
	manifestVersion = uint16(1)

	// maxManifestShards bounds the shard count a manifest may claim, so a
	// corrupt count cannot drive recovery into allocating or probing
	// millions of shard files. Mirrors the core build ceiling.
	maxManifestShards = 1 << 12
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Store manages the on-disk layout of one data directory.
type Store struct {
	dir   string
	fs    FS
	retry RetryPolicy
}

// Open creates (if needed) and returns the store rooted at dir, backed by
// the real disk.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, nil)
}

// OpenFS is Open with an explicit filesystem; a nil fsys means the real
// disk. The chaos harness passes a fault-injecting FS here.
func OpenFS(dir string, fsys FS) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty data dir", ErrInvalidArgument)
	}
	if fsys == nil {
		fsys = OSFS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: open data dir: %w", err)
	}
	return &Store{dir: dir, fs: fsys, retry: DefaultRetry}, nil
}

// Dir returns the root data directory.
func (s *Store) Dir() string { return s.dir }

// FS returns the filesystem the store operates on.
func (s *Store) FS() FS { return s.fs }

// SetRetryPolicy overrides the write retry policy (tests shrink the
// backoff; Attempts below 1 is clamped to 1).
func (s *Store) SetRetryPolicy(p RetryPolicy) { s.retry = p.norm() }

// encodeName maps an index name onto a filesystem-safe directory name,
// reversibly. Plain names keep a readable "i-" form; anything else is
// base64-escaped under "e-". The prefixes keep the two spaces disjoint so
// no two index names can collide on disk.
func encodeName(name string) string {
	if name != "" && len(name) <= 128 && strings.IndexFunc(name, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '.' || r == '_' || r == '-')
	}) < 0 && name != "." && name != ".." {
		return "i-" + name
	}
	return "e-" + base64.RawURLEncoding.EncodeToString([]byte(name))
}

func decodeName(dir string) (string, bool) {
	switch {
	case strings.HasPrefix(dir, "i-"):
		return dir[2:], true
	case strings.HasPrefix(dir, "e-"):
		raw, err := base64.RawURLEncoding.DecodeString(dir[2:])
		if err != nil {
			return "", false
		}
		return string(raw), true
	default:
		return "", false
	}
}

// IndexDir returns the directory holding the given index's files.
func (s *Store) IndexDir(name string) string {
	return filepath.Join(s.dir, encodeName(name))
}

// SnapshotPath returns the index's snapshot file path.
func (s *Store) SnapshotPath(name string) string {
	return filepath.Join(s.IndexDir(name), snapshotFile)
}

// WALPath returns the index's write-ahead-log file path.
func (s *Store) WALPath(name string) string {
	return filepath.Join(s.IndexDir(name), walFile)
}

// List returns the names of all indexes present in the store, in directory
// order.
func (s *Store) List() ([]string, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list data dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if name, ok := decodeName(e.Name()); ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// Remove deletes every file of the given index.
func (s *Store) Remove(name string) error {
	if err := s.fs.RemoveAll(s.IndexDir(name)); err != nil {
		return fmt.Errorf("persist: remove %q: %w", name, err)
	}
	return nil
}

// WriteSnapshot atomically replaces the index's snapshot with the given
// blob. On return the snapshot is durable: the bytes and the rename are
// both fsynced. Transient write failures are retried per the store's
// RetryPolicy (each attempt starts over with a fresh temp file).
func (s *Store) WriteSnapshot(name string, blob []byte) error {
	dir := s.IndexDir(name)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: snapshot dir: %w", err)
	}
	header := make([]byte, snapHeaderSize)
	binary.LittleEndian.PutUint32(header[0:], snapMagic)
	binary.LittleEndian.PutUint16(header[4:], snapVersion)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(blob)))
	binary.LittleEndian.PutUint32(header[16:], crc32.Checksum(blob, crcTable))
	path := filepath.Join(dir, snapshotFile)
	return writeFileAtomic(s.fs, s.retry, path, header, blob)
}

// ReadSnapshot loads and validates the index's snapshot, returning the
// original blob. A missing snapshot reports os.ErrNotExist; a damaged one
// reports ErrCorrupt with detail.
func (s *Store) ReadSnapshot(name string) ([]byte, error) {
	return readSnapshotFile(s.fs, s.SnapshotPath(name))
}

// readSnapshotFile loads and validates one snapshot envelope.
func readSnapshotFile(fsys FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < snapHeaderSize {
		return nil, fmt.Errorf("%w: snapshot truncated at %d bytes", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != snapMagic {
		return nil, fmt.Errorf("%w: snapshot magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != snapVersion {
		return nil, fmt.Errorf("%w: snapshot version %d", ErrCorrupt, v)
	}
	payloadLen := binary.LittleEndian.Uint64(data[8:])
	if payloadLen != uint64(len(data)-snapHeaderSize) {
		return nil, fmt.Errorf("%w: snapshot payload %d bytes, header says %d",
			ErrCorrupt, len(data)-snapHeaderSize, payloadLen)
	}
	payload := data[snapHeaderSize:]
	if crc := crc32.Checksum(payload, crcTable); crc != binary.LittleEndian.Uint32(data[16:]) {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// --- sharded layout ---------------------------------------------------------

// ShardManifest records the layout of a sharded dynamic index: the shard
// count and the K−1 routing bounds that assign keys to shards. Its
// presence marks the index directory as sharded; recovery reads it first
// and then recovers each shard's snapshot+WAL pair independently.
type ShardManifest struct {
	Shards int
	Bounds []float64
}

// ShardManifestPath returns the index's shard-manifest file path.
func (s *Store) ShardManifestPath(name string) string {
	return filepath.Join(s.IndexDir(name), shardManifestFile)
}

// shardSnapshotFile returns the file name of shard i's snapshot.
func shardSnapshotFile(i int) string { return fmt.Sprintf("shard-%d.snapshot.pf", i) }

// ShardSnapshotPath returns shard i's snapshot file path.
func (s *Store) ShardSnapshotPath(name string, i int) string {
	return filepath.Join(s.IndexDir(name), shardSnapshotFile(i))
}

// ShardWALPath returns shard i's write-ahead-log file path.
func (s *Store) ShardWALPath(name string, i int) string {
	return filepath.Join(s.IndexDir(name), fmt.Sprintf("shard-%d.wal.pf", i))
}

// WriteShardManifest atomically writes the index's shard manifest. Callers
// write it AFTER the per-shard snapshots: the manifest is the commit point
// that flips recovery onto the sharded path.
func (s *Store) WriteShardManifest(name string, m ShardManifest) error {
	if m.Shards < 1 || m.Shards > maxManifestShards {
		return fmt.Errorf("%w: manifest shard count %d", ErrInvalidArgument, m.Shards)
	}
	if len(m.Bounds) != m.Shards-1 {
		return fmt.Errorf("%w: manifest has %d bounds for %d shards", ErrInvalidArgument, len(m.Bounds), m.Shards)
	}
	dir := s.IndexDir(name)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: manifest dir: %w", err)
	}
	payload := make([]byte, 4+8*len(m.Bounds))
	binary.LittleEndian.PutUint32(payload, uint32(m.Shards))
	for i, b := range m.Bounds {
		binary.LittleEndian.PutUint64(payload[4+8*i:], math.Float64bits(b))
	}
	header := make([]byte, snapHeaderSize)
	binary.LittleEndian.PutUint32(header[0:], manifestMagic)
	binary.LittleEndian.PutUint16(header[4:], manifestVersion)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[16:], crc32.Checksum(payload, crcTable))
	path := filepath.Join(dir, shardManifestFile)
	return writeFileAtomic(s.fs, s.retry, path, header, payload)
}

// ReadShardManifest loads and validates the index's shard manifest. A
// missing manifest (the index is not sharded) reports os.ErrNotExist; a
// damaged one reports ErrCorrupt.
func (s *Store) ReadShardManifest(name string) (ShardManifest, error) {
	data, err := s.fs.ReadFile(s.ShardManifestPath(name))
	if err != nil {
		return ShardManifest{}, err
	}
	if len(data) < snapHeaderSize {
		return ShardManifest{}, fmt.Errorf("%w: manifest truncated at %d bytes", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != manifestMagic {
		return ShardManifest{}, fmt.Errorf("%w: manifest magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != manifestVersion {
		return ShardManifest{}, fmt.Errorf("%w: manifest version %d", ErrCorrupt, v)
	}
	if r := binary.LittleEndian.Uint16(data[6:]); r != 0 {
		return ShardManifest{}, fmt.Errorf("%w: manifest reserved bytes %#x", ErrCorrupt, r)
	}
	payloadLen := binary.LittleEndian.Uint64(data[8:])
	if payloadLen != uint64(len(data)-snapHeaderSize) {
		return ShardManifest{}, fmt.Errorf("%w: manifest payload %d bytes, header says %d",
			ErrCorrupt, len(data)-snapHeaderSize, payloadLen)
	}
	payload := data[snapHeaderSize:]
	if crc := crc32.Checksum(payload, crcTable); crc != binary.LittleEndian.Uint32(data[16:]) {
		return ShardManifest{}, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	if len(payload) < 4 {
		return ShardManifest{}, fmt.Errorf("%w: manifest payload too short", ErrCorrupt)
	}
	k := binary.LittleEndian.Uint32(payload)
	if k < 1 || k > maxManifestShards || len(payload) != 4+8*int(k-1) {
		return ShardManifest{}, fmt.Errorf("%w: manifest claims %d shards with %d payload bytes",
			ErrCorrupt, k, len(payload))
	}
	m := ShardManifest{Shards: int(k), Bounds: make([]float64, k-1)}
	for i := range m.Bounds {
		m.Bounds[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[4+8*i:]))
		if math.IsNaN(m.Bounds[i]) || math.IsInf(m.Bounds[i], 0) {
			return ShardManifest{}, fmt.Errorf("%w: non-finite manifest bound", ErrCorrupt)
		}
		if i > 0 && m.Bounds[i] <= m.Bounds[i-1] {
			return ShardManifest{}, fmt.Errorf("%w: manifest bounds not strictly increasing", ErrCorrupt)
		}
	}
	return m, nil
}

// WriteShardSnapshot atomically replaces shard i's snapshot (same
// checksummed envelope as WriteSnapshot).
func (s *Store) WriteShardSnapshot(name string, i int, blob []byte) error {
	dir := s.IndexDir(name)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("persist: shard snapshot dir: %w", err)
	}
	header := make([]byte, snapHeaderSize)
	binary.LittleEndian.PutUint32(header[0:], snapMagic)
	binary.LittleEndian.PutUint16(header[4:], snapVersion)
	binary.LittleEndian.PutUint64(header[8:], uint64(len(blob)))
	binary.LittleEndian.PutUint32(header[16:], crc32.Checksum(blob, crcTable))
	path := filepath.Join(dir, shardSnapshotFile(i))
	return writeFileAtomic(s.fs, s.retry, path, header, blob)
}

// ReadShardSnapshot loads and validates shard i's snapshot.
func (s *Store) ReadShardSnapshot(name string, i int) ([]byte, error) {
	return readSnapshotFile(s.fs, s.ShardSnapshotPath(name, i))
}

// RemoveShardFiles deletes the manifest and every per-shard file of the
// index, manifest first: once it is gone, recovery falls back to the plain
// snapshot, so a crash mid-removal cannot resurrect a half-deleted sharded
// index. Used when a restore replaces a sharded index with a plain one.
func (s *Store) RemoveShardFiles(name string) error {
	return s.RemoveShardFilesFrom(name, 0)
}

// RemoveShardFilesFrom deletes the per-shard files whose shard index is ≥
// from (and, when from is 0, the manifest too — removed first, see
// RemoveShardFiles). A restore that shrinks the shard count uses from = K
// to drop the stale higher-numbered shards, holes included: the directory
// is listed, not probed.
func (s *Store) RemoveShardFilesFrom(name string, from int) error {
	if from <= 0 {
		if err := s.fs.Remove(s.ShardManifestPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("persist: remove manifest: %w", err)
		}
	}
	entries, err := s.fs.ReadDir(s.IndexDir(name))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("persist: list index dir: %w", err)
	}
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), "shard-")
		if !ok || !strings.HasSuffix(e.Name(), ".pf") {
			continue
		}
		idx, _, ok := strings.Cut(rest, ".")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(idx)
		if err != nil || n < from {
			continue
		}
		if err := s.fs.Remove(filepath.Join(s.IndexDir(name), e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("persist: remove %s: %w", e.Name(), err)
		}
	}
	return nil
}

// writeFileAtomic writes the chunks to path atomically, retrying per the
// policy. Once any attempt's rename has landed, the new content is what
// readers see even if a later step failed; that failure is reported
// wrapping ErrUnsynced so callers can tell "replaced, durability
// uncertain" from "untouched".
func writeFileAtomic(fsys FS, retry RetryPolicy, path string, chunks ...[]byte) error {
	renamed := false
	err := retry.run(func() error {
		r, err := writeFileOnce(fsys, path, chunks...)
		renamed = renamed || r
		return err
	})
	if err != nil && renamed {
		return fmt.Errorf("%w: %w", ErrUnsynced, err)
	}
	return err
}

// writeFileOnce writes the chunks to a temp file in path's directory,
// fsyncs it, renames it over path, and fsyncs the directory so the rename
// itself survives a crash. On a failure before the rename the temp file is
// removed (best-effort) and the destination is untouched, so the whole
// operation can simply be retried. renamed reports whether the rename
// happened.
func writeFileOnce(fsys FS, path string, chunks ...[]byte) (renamed bool, err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return false, fmt.Errorf("persist: temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) (bool, error) {
		//lint:ignore syncclose the operation already failed and the temp file is removed next; joining a second (sometimes double-) close error would only mask the cause
		tmp.Close()
		fsys.Remove(tmpName)
		return false, err
	}
	for _, c := range chunks {
		if _, err := tmp.Write(c); err != nil {
			return cleanup(fmt.Errorf("persist: write: %w", err))
		}
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(fmt.Errorf("persist: fsync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return cleanup(fmt.Errorf("persist: close: %w", err))
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return false, fmt.Errorf("persist: rename: %w", err)
	}
	return true, fsys.SyncDir(dir)
}
