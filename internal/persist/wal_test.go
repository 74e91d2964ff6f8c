package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openWAL(t *testing.T, path string) (*WAL, []Record, int) {
	t.Helper()
	w, recs, dropped, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs, dropped
}

func TestWALAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, recs, dropped := openWAL(t, path)
	if len(recs) != 0 || dropped != 0 {
		t.Fatalf("fresh wal recovered %d records, dropped %d", len(recs), dropped)
	}
	want := []Record{{1.5, 2}, {-3, 0.25}, {1e9, -1e-9}}
	if err := w.Append(want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(want[2:]); err != nil {
		t.Fatal(err)
	}
	if n := w.Records(); n != 3 {
		t.Fatalf("Records() = %d, want 3", n)
	}
	w.Close()

	_, recs, dropped = openWAL(t, path)
	if dropped != 0 {
		t.Fatalf("clean wal dropped %d bytes", dropped)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	if err := w.Append([]Record{{1, 1}, {2, 2}, {3, 3}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate a crash mid-append: chop the file inside the last record.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	w2, recs, dropped := openWAL(t, path)
	if len(recs) != 2 || dropped != walRecordSize-7 {
		t.Fatalf("torn tail: replayed %d records, dropped %d bytes; want 2, %d",
			len(recs), dropped, walRecordSize-7)
	}
	// The log must be usable again from the clean boundary.
	if err := w2.Append([]Record{{4, 4}}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, recs, dropped = openWAL(t, path)
	if len(recs) != 3 || dropped != 0 || recs[2] != (Record{4, 4}) {
		t.Fatalf("after torn-tail recovery: %+v (dropped %d)", recs, dropped)
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	w.Append([]Record{{1, 1}, {2, 2}, {3, 3}})
	w.Close()
	data, _ := os.ReadFile(path)
	data[walHeaderSize+walRecordSize+5] ^= 0x10 // flip a bit in record 2
	os.WriteFile(path, data, 0o644)
	_, recs, dropped := openWAL(t, path)
	if len(recs) != 1 || dropped != 2*walRecordSize {
		t.Fatalf("corrupt middle record: replayed %d, dropped %d", len(recs), dropped)
	}
}

func TestWALCorruptHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	w.Append([]Record{{1, 1}})
	w.Close()
	data, _ := os.ReadFile(path)
	data[0] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, _, _, err := OpenWAL(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt header: %v, want ErrCorrupt", err)
	}
	// SetAside moves it out of the way so a fresh log can start.
	if err := SetAside(path); err != nil {
		t.Fatal(err)
	}
	w2, recs, _ := openWAL(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh wal after SetAside replayed %d records", len(recs))
	}
	w2.Close()
}

func TestWALTruncateTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	w.Append([]Record{{1, 1}, {2, 2}})
	cut := w.Size()
	w.Append([]Record{{3, 3}, {4, 4}})
	if err := w.TruncateTo(cut); err != nil {
		t.Fatal(err)
	}
	if n := w.Records(); n != 2 {
		t.Fatalf("after TruncateTo: %d records, want 2", n)
	}
	// Appends continue on the rewritten file.
	if err := w.Append([]Record{{5, 5}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, _ := openWAL(t, path)
	want := []Record{{3, 3}, {4, 4}, {5, 5}}
	if len(recs) != len(want) {
		t.Fatalf("replayed %+v, want %+v", recs, want)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Fatalf("replayed %+v, want %+v", recs, want)
		}
	}
}

func TestWALTruncateToWholeLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	w.Append([]Record{{1, 1}, {2, 2}})
	if err := w.TruncateTo(w.Size()); err != nil {
		t.Fatal(err)
	}
	if n := w.Records(); n != 0 {
		t.Fatalf("after full truncate: %d records", n)
	}
	w.Append([]Record{{9, 9}})
	w.Close()
	_, recs, _ := openWAL(t, path)
	if len(recs) != 1 || recs[0] != (Record{9, 9}) {
		t.Fatalf("replayed %+v", recs)
	}
}

func TestWALBadCutRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	w.Append([]Record{{1, 1}})
	for _, cut := range []int64{-1, 3, walHeaderSize + 1, w.Size() + walRecordSize} {
		if err := w.TruncateTo(cut); err == nil {
			t.Errorf("cut %d accepted", cut)
		}
	}
}

func TestWALReadFrom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	want := []Record{{1, 1}, {2, 4}, {3, 9}, {4, 16}}
	if err := w.Append(want[:2]); err != nil {
		t.Fatal(err)
	}
	cursor := int64(WALHeaderSize)
	recs, next, err := w.ReadFrom(cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0] != want[0] || recs[1] != want[1] {
		t.Fatalf("ReadFrom(start) = %+v, want %+v", recs, want[:2])
	}
	if next != WALHeaderSize+2*WALRecordSize {
		t.Fatalf("next = %d, want %d", next, WALHeaderSize+2*WALRecordSize)
	}
	// An exhausted cursor returns no records and the same offset.
	recs, again, err := w.ReadFrom(next)
	if err != nil || len(recs) != 0 || again != next {
		t.Fatalf("ReadFrom(end) = %+v next %d err %v", recs, again, err)
	}
	// New appends show up from the old cursor.
	if err := w.Append(want[2:]); err != nil {
		t.Fatal(err)
	}
	recs, next2, err := w.ReadFrom(next)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0] != want[2] || recs[1] != want[3] {
		t.Fatalf("ReadFrom(tail) = %+v, want %+v", recs, want[2:])
	}
	if next2 != w.Size() {
		t.Fatalf("next = %d, want size %d", next2, w.Size())
	}
}

func TestWALReadFromBadOffsets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	w.Append([]Record{{1, 1}})
	for _, off := range []int64{-1, 0, WALHeaderSize + 1, w.Size() + WALRecordSize} {
		if _, _, err := w.ReadFrom(off); !errors.Is(err, ErrInvalidArgument) {
			t.Errorf("ReadFrom(%d) err = %v, want ErrInvalidArgument", off, err)
		}
	}
	w.Close()
	if _, _, err := w.ReadFrom(WALHeaderSize); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrom on closed wal: %v, want ErrClosed", err)
	}
}

func TestWALReadFromAfterTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.pf")
	w, _, _ := openWAL(t, path)
	w.Append([]Record{{1, 1}, {2, 2}})
	cut := w.Size()
	w.Append([]Record{{3, 3}})
	if err := w.TruncateTo(cut); err != nil {
		t.Fatal(err)
	}
	// After a truncation the log restarts at the header: the surviving tail
	// reads back from WALHeaderSize.
	recs, next, err := w.ReadFrom(WALHeaderSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != (Record{3, 3}) || next != w.Size() {
		t.Fatalf("post-truncate tail = %+v next %d", recs, next)
	}
}

func TestMarshalUnmarshalRecords(t *testing.T) {
	want := []Record{{1.5, -2.5}, {0, 0}, {1e300, -1e-300}}
	wire := MarshalRecords(want)
	if len(wire) != len(want)*WALRecordSize {
		t.Fatalf("wire length %d, want %d", len(wire), len(want)*WALRecordSize)
	}
	got, err := UnmarshalRecords(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if recs, err := UnmarshalRecords(nil); err != nil || len(recs) != 0 {
		t.Fatalf("empty payload: %v %v", recs, err)
	}
	// A wire payload is all-or-nothing: partial records and bit flips reject.
	if _, err := UnmarshalRecords(wire[:len(wire)-3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("partial payload err = %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), wire...)
	flipped[WALRecordSize+4] ^= 0x40
	if _, err := UnmarshalRecords(flipped); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload err = %v, want ErrCorrupt", err)
	}
}

// failDirSyncFS fails every directory fsync while fail is set: the rename
// before it has already landed.
type failDirSyncFS struct {
	FS
	fail bool
}

func (f *failDirSyncFS) SyncDir(dir string) error {
	if f.fail {
		return errors.New("failDirSyncFS: injected directory fsync failure")
	}
	return f.FS.SyncDir(dir)
}

// TestWALRewriteFailedAfterRename: when a truncation's directory fsync
// fails, the rewritten file is already in place and the old descriptor
// points at the unlinked one. The failure is reported as ErrUnsynced,
// appends are refused (an acknowledged record would vanish with the
// unlinked file), and Reset heals the log.
func TestWALRewriteFailedAfterRename(t *testing.T) {
	fsys := &failDirSyncFS{FS: OSFS()}
	s, err := OpenFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRetryPolicy(RetryPolicy{Attempts: 1})
	path := s.WALPath("ix")
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	w, _, _, err := s.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Append([]Record{{1, 1}, {2, 2}})
	fsys.fail = true
	if err := w.TruncateTo(w.Size()); !errors.Is(err, ErrUnsynced) {
		t.Fatalf("TruncateTo with failing dir fsync: %v, want ErrUnsynced", err)
	}
	if err := w.Append([]Record{{3, 3}}); !errors.Is(err, ErrSick) {
		t.Fatalf("append after a failed rewrite: %v, want ErrSick", err)
	}
	fsys.fail = false
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]Record{{4, 4}}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, recs, _ := openWAL(t, path)
	if len(recs) != 1 || recs[0] != (Record{4, 4}) {
		t.Fatalf("replayed %+v, want only the post-Reset record", recs)
	}
}

// TestOpenFreshWALFallback: a fresh log that cannot be created still
// yields a handle — sick until Reset creates the file.
func TestOpenFreshWALFallback(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := s.WALPath("ix") // the index dir does not exist yet
	w, err := s.OpenFreshWAL(path)
	if err == nil {
		t.Fatal("OpenFreshWAL in a missing directory succeeded")
	}
	defer w.Close()
	if err := w.Append([]Record{{1, 1}}); !errors.Is(err, ErrSick) {
		t.Fatalf("append to the fallback log: %v, want ErrSick", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]Record{{2, 2}}); err != nil {
		t.Fatal(err)
	}
	if n := w.Records(); n != 1 {
		t.Fatalf("healed log holds %d records, want 1", n)
	}
}
