package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
)

// WAL record wire format, little endian:
//
//	key float64 | measure float64 | crc32c(key, measure) uint32
//
// preceded by an 8-byte file header (magic, version, reserved). The
// per-record CRC turns the common crash artefact — a torn final record —
// into a cleanly detectable log end instead of a garbage insert.
const (
	walMagic      = uint32(0x5046574C) // "PFWL"
	walVersion    = uint16(1)
	walHeaderSize = 8
	walRecordSize = 20
)

// Record is one acknowledged insert.
type Record struct {
	Key     float64
	Measure float64
}

// Exported sizes of the WAL wire format. The 20-byte CRC'd record encoding
// doubles as the replication wire format (internal/cluster streams WAL
// tails verbatim), so the arithmetic between byte offsets and record
// sequence numbers is public.
const (
	WALHeaderSize = walHeaderSize
	WALRecordSize = walRecordSize
)

// MarshalRecords encodes records in the WAL wire format: 20 bytes each —
// key float64 | measure float64 | crc32c(key, measure) — little endian.
// The same bytes are valid as a WAL body suffix and as a replication
// stream payload.
func MarshalRecords(recs []Record) []byte {
	buf := make([]byte, len(recs)*walRecordSize)
	for i, r := range recs {
		b := buf[i*walRecordSize:]
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.Key))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.Measure))
		binary.LittleEndian.PutUint32(b[16:], crc32.Checksum(b[:16], crcTable))
	}
	return buf
}

// UnmarshalRecords decodes a complete wire payload produced by
// MarshalRecords. Unlike decodeRecords (which tolerates a torn tail — the
// normal crash artefact of an append-only file), a wire payload arrives
// over a reliable transport, so a partial record or checksum failure is
// corruption: the whole payload is rejected with ErrCorrupt.
func UnmarshalRecords(data []byte) ([]Record, error) {
	if len(data)%walRecordSize != 0 {
		return nil, fmt.Errorf("%w: record payload of %d bytes is not a record multiple", ErrCorrupt, len(data))
	}
	recs, valid := decodeRecords(data)
	if valid != len(data) {
		return nil, fmt.Errorf("%w: record checksum mismatch at byte %d", ErrCorrupt, valid)
	}
	return recs, nil
}

// DecodeWALFile parses a complete WAL file image without touching any
// disk state: it validates the header and decodes every intact record,
// reporting how many trailing bytes are torn (short or checksum-failing).
// The read-only counterpart of OpenWAL's recovery, for offline inspection
// (polyfit-cli wal). An empty image is a valid empty log.
func DecodeWALFile(data []byte) (recs []Record, tornBytes int, err error) {
	if len(data) == 0 {
		return nil, 0, nil
	}
	if len(data) < walHeaderSize || binary.LittleEndian.Uint32(data[0:]) != walMagic {
		return nil, 0, fmt.Errorf("%w: wal header", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != walVersion {
		return nil, 0, fmt.Errorf("%w: wal version %d", ErrCorrupt, v)
	}
	body := data[walHeaderSize:]
	recs, valid := decodeRecords(body)
	return recs, len(body) - valid, nil
}

// decodeRecords reads consecutive CRC-checked records from data, stopping
// at the first torn or checksum-failing one, and returns the records plus
// how many bytes were valid.
func decodeRecords(data []byte) (recs []Record, valid int) {
	for valid+walRecordSize <= len(data) {
		rec := data[valid : valid+walRecordSize]
		if crc32.Checksum(rec[:16], crcTable) != binary.LittleEndian.Uint32(rec[16:]) {
			break
		}
		recs = append(recs, Record{
			Key:     math.Float64frombits(binary.LittleEndian.Uint64(rec[0:])),
			Measure: math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
		})
		valid += walRecordSize
	}
	return recs, valid
}

// WAL is an append-only, fsync-on-append log of acknowledged inserts for
// one index. It is safe for concurrent use.
//
// Failed appends are retried with backoff; between attempts any partial
// bytes of the failed write are truncated away so the on-disk log never
// carries garbage mid-file. If even that repair truncate fails, the WAL
// marks itself sick and refuses further appends until Reset rewrites it —
// the caller degrades to non-durable acks rather than blocking on a disk
// that cannot be trusted.
type WAL struct {
	mu     sync.Mutex
	path   string
	fsys   FS
	retry  RetryPolicy
	f      File
	size   int64 // header + records, maintained to avoid a stat per append
	sick   bool  // repair truncate failed; on-disk tail state unknown
	closed bool  // Close was called; every later operation fails
}

// OpenWAL opens (creating if absent) the WAL at path on the real disk. See
// openWALFS.
func OpenWAL(path string) (w *WAL, recovered []Record, droppedBytes int, err error) {
	return openWALFS(path, OSFS(), DefaultRetry)
}

// OpenWAL opens the WAL at path through the store's filesystem and retry
// policy; paths normally come from the store's own WALPath/ShardWALPath.
func (s *Store) OpenWAL(path string) (w *WAL, recovered []Record, droppedBytes int, err error) {
	return openWALFS(path, s.fs, s.retry)
}

// OpenFreshWAL opens the WAL at path for a brand-new (created or
// restored) index and purges any records already in the file: they belong
// to an earlier same-named index, and replaying them into the new one on
// the next boot would insert records it never acknowledged. On failure it
// still returns a usable handle — an empty, sick log whose appends fail
// until Reset recreates the file — for callers that have already
// committed the new index and must degrade rather than fail.
func (s *Store) OpenFreshWAL(path string) (*WAL, error) {
	w, stale, _, err := s.OpenWAL(path)
	if err == nil && len(stale) > 0 {
		if err = w.TruncateTo(w.Size()); err != nil {
			w.Close() //nolint:errcheck
		}
	}
	if err != nil {
		return &WAL{path: path, fsys: s.fs, retry: s.retry.norm(), size: walHeaderSize, sick: true}, err
	}
	return w, nil
}

// openWALFS opens (creating if absent) the WAL at path and returns the valid
// records already in it. A torn or checksum-failing tail is truncated away
// so appends resume from the last clean record boundary; the number of
// dropped bytes is returned for reporting. A corrupt header makes the whole
// log unreadable and is reported as ErrCorrupt — the caller decides whether
// to set the file aside and start fresh.
func openWALFS(path string, fsys FS, retry RetryPolicy) (w *WAL, recovered []Record, droppedBytes int, err error) {
	data, err := fsys.ReadFile(path)
	if os.IsNotExist(err) {
		data = nil
	} else if err != nil {
		return nil, nil, 0, fmt.Errorf("persist: read wal: %w", err)
	}
	fresh := len(data) == 0
	if !fresh {
		if len(data) < walHeaderSize ||
			binary.LittleEndian.Uint32(data[0:]) != walMagic {
			return nil, nil, 0, fmt.Errorf("%w: wal header", ErrCorrupt)
		}
		if v := binary.LittleEndian.Uint16(data[4:]); v != walVersion {
			return nil, nil, 0, fmt.Errorf("%w: wal version %d", ErrCorrupt, v)
		}
		body := data[walHeaderSize:]
		var valid int
		recovered, valid = decodeRecords(body)
		droppedBytes = len(body) - valid
		if droppedBytes > 0 {
			if err := fsys.Truncate(path, int64(walHeaderSize+valid)); err != nil {
				return nil, nil, 0, fmt.Errorf("persist: truncate torn wal tail: %w", err)
			}
		}
	}
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("persist: open wal: %w", err)
	}
	w = &WAL{path: path, fsys: fsys, retry: retry.norm(), f: f,
		size: int64(walHeaderSize + len(recovered)*walRecordSize)}
	if fresh {
		header := make([]byte, walHeaderSize)
		binary.LittleEndian.PutUint32(header[0:], walMagic)
		binary.LittleEndian.PutUint16(header[4:], walVersion)
		if _, err := f.Write(header); err != nil {
			return nil, nil, 0, errors.Join(fmt.Errorf("persist: write wal header: %w", err), f.Close())
		}
		if err := f.Sync(); err != nil {
			return nil, nil, 0, errors.Join(fmt.Errorf("persist: fsync wal header: %w", err), f.Close())
		}
	}
	return w, recovered, droppedBytes, nil
}

// Append writes the records and fsyncs once. When Append returns nil the
// records are durable — callers acknowledge the corresponding inserts only
// after that. Transient failures are retried per the retry policy after
// truncating away any partially written bytes, so a retried (or later)
// append always starts at a clean record boundary.
func (w *WAL) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	buf := MarshalRecords(recs)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: %s", ErrClosed, w.path)
	}
	if w.sick || w.f == nil {
		return fmt.Errorf("%w: %s", ErrSick, w.path)
	}
	var err error
	err = w.retry.run(func() error {
		werr := w.writeAndSyncLocked(buf)
		if werr == nil {
			return nil
		}
		// Drop whatever partial bytes the failed attempt may have left so
		// the next write (retry or future append) lands on a record
		// boundary. O_APPEND writes resume at the new end of file.
		if terr := w.fsys.Truncate(w.path, w.size); terr != nil {
			w.sick = true
			return fmt.Errorf("%v; repair truncate: %w", werr, terr)
		}
		return werr
	})
	if err != nil {
		return fmt.Errorf("persist: wal append: %w", err)
	}
	w.size += int64(len(buf))
	return nil
}

func (w *WAL) writeAndSyncLocked(buf []byte) error {
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	return w.f.Sync()
}

// Sick reports whether the WAL has refused appends after a failed repair.
// A sick WAL heals only through Reset.
func (w *WAL) Sick() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sick
}

// Reset atomically rewrites the log as an empty (header-only) file and
// clears the sick flag. Callers use it after a snapshot has made every
// applied record durable through other means, so dropping the log —
// whatever state its tail is in — loses nothing. Reset also heals a log
// that lost its file handle (a failed reopen, or OpenFreshWAL's fallback):
// only Close is final.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: %s", ErrClosed, w.path)
	}
	header := make([]byte, walHeaderSize)
	binary.LittleEndian.PutUint32(header[0:], walMagic)
	binary.LittleEndian.PutUint16(header[4:], walVersion)
	if err := writeFileAtomic(w.fsys, w.retry, w.path, header); err != nil {
		w.dropLocked()
		return err
	}
	if w.f != nil {
		//lint:ignore syncclose the old descriptor points at the file writeFileAtomic already unlinked; its close error cannot affect durability
		w.f.Close()
	}
	f, err := w.fsys.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.f = nil
		return fmt.Errorf("persist: reopen wal after reset: %w", err)
	}
	w.f = f
	w.size = walHeaderSize
	w.sick = false
	return nil
}

// ReadFrom reads the records between the byte offset and the current end
// of the log, returning them together with the offset one past the last
// record read (the cursor for the next call). Offsets are record
// boundaries: WALHeaderSize is the start of the log, and any previously
// returned next offset (or Size()) is valid. Every record below Size() was
// fsynced before its insert was acknowledged, so a ReadFrom tail is safe
// to replicate — it can never contain an unacknowledged record.
//
// The read holds the WAL lock, so it observes a consistent file: a
// concurrent Append lands entirely before or entirely after the tail.
// Callers coordinating with TruncateTo (which rewrites offsets) must
// serialise externally — see the serving layer's replication state.
func (w *WAL) ReadFrom(offset int64) (recs []Record, next int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, 0, fmt.Errorf("%w: %s", ErrClosed, w.path)
	}
	if w.f == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrSick, w.path)
	}
	if offset < walHeaderSize || offset > w.size || (offset-walHeaderSize)%walRecordSize != 0 {
		return nil, 0, fmt.Errorf("%w: bad wal read offset %d (size %d)", ErrInvalidArgument, offset, w.size)
	}
	if offset == w.size {
		return nil, offset, nil
	}
	buf := make([]byte, w.size-offset)
	if _, err := w.fsys.ReadAt(w.path, buf, offset); err != nil {
		return nil, 0, fmt.Errorf("persist: read wal tail: %w", err)
	}
	recs, valid := decodeRecords(buf)
	if valid != len(buf) {
		// Below w.size every record was written and fsynced before the append
		// returned; a checksum failure here means the file rotted underneath.
		return nil, 0, fmt.Errorf("%w: wal record checksum at offset %d", ErrCorrupt, offset+int64(valid))
	}
	return recs, w.size, nil
}

// Size returns the current file size (header included). The value is a
// valid TruncateTo cut point: every record below it is durable.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Records returns how many records the log currently holds.
func (w *WAL) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return (w.size - walHeaderSize) / walRecordSize
}

// TruncateTo drops the log prefix below the cut offset (a Size() observed
// earlier, i.e. a record boundary), keeping records appended after it. It
// is called after a snapshot covering that prefix has been made durable:
// the file is atomically rewritten as header + uncovered tail, so a crash
// during truncation leaves either the old log (fully replayable) or the new
// one.
func (w *WAL) TruncateTo(cut int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("%w: %s", ErrClosed, w.path)
	}
	if w.f == nil {
		return fmt.Errorf("%w: %s", ErrSick, w.path)
	}
	if cut < walHeaderSize || cut > w.size || (cut-walHeaderSize)%walRecordSize != 0 {
		return fmt.Errorf("%w: bad wal cut %d (size %d)", ErrInvalidArgument, cut, w.size)
	}
	if cut == walHeaderSize {
		return nil // nothing covered; keep everything
	}
	tail := make([]byte, w.size-cut)
	if len(tail) > 0 {
		if _, err := w.fsys.ReadAt(w.path, tail, cut); err != nil {
			return fmt.Errorf("persist: read wal tail: %w", err)
		}
	}
	header := make([]byte, walHeaderSize)
	binary.LittleEndian.PutUint32(header[0:], walMagic)
	binary.LittleEndian.PutUint16(header[4:], walVersion)
	if err := writeFileAtomic(w.fsys, w.retry, w.path, header, tail); err != nil {
		w.dropLocked()
		return err
	}
	// The old descriptor now points at the unlinked file; reopen the new one.
	//lint:ignore syncclose closing an unlinked descriptor; the replacement file was already fsynced by writeFileAtomic
	w.f.Close()
	f, err := w.fsys.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.f = nil
		return fmt.Errorf("persist: reopen wal after truncate: %w", err)
	}
	w.f = f
	w.size = int64(walHeaderSize + len(tail))
	return nil
}

// dropLocked gives up the file handle after a failed rewrite: the rename
// may have landed before the failure (a failed directory fsync), leaving
// the descriptor on an unlinked file, and an append acknowledged into it
// would vanish. The log stays sick until Reset rewrites it.
func (w *WAL) dropLocked() {
	if w.f != nil {
		//lint:ignore syncclose the descriptor is abandoned because its file may be unlinked; nothing acknowledged depends on its close
		w.f.Close()
	}
	w.f = nil
	w.sick = true
}

// Close releases the file handle. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// SetAside renames a damaged WAL out of the way (wal.pf -> wal.pf.corrupt)
// so a fresh log can be started while keeping the bytes for inspection.
func SetAside(path string) error {
	return os.Rename(path, path+".corrupt")
}

// SetAside is the store-filesystem variant of the package-level SetAside.
func (s *Store) SetAside(path string) error {
	return s.fs.Rename(path, path+".corrupt")
}
