package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/persist"
)

// stepFS fails exactly one mutating filesystem operation: once armed, it
// counts every write-side call (temp-file creation, opens, writes, fsyncs,
// renames, removals, truncations, directory syncs) — or only the calls
// named by only — and fails call number at. Reads pass through, so
// recovery and the index's own reads are never the fault. fired reports
// whether the fault was reached.
type stepFS struct {
	persist.FS
	only  string
	mu    sync.Mutex
	armed bool
	at    int
	n     int
	fired bool
}

func (f *stepFS) fail(op string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed || (f.only != "" && op != f.only) {
		return nil
	}
	f.n++
	if f.n != f.at {
		return nil
	}
	f.fired = true
	return fmt.Errorf("stepFS: injected failure of %s (step %d)", op, f.at)
}

func (f *stepFS) arm(at int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed, f.at, f.n, f.fired = true, at, 0, false
}

// disarm stops injecting and reports whether the armed fault fired.
func (f *stepFS) disarm() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = false
	return f.fired
}

type stepFile struct {
	persist.File
	fs *stepFS
}

func (f *stepFile) Write(p []byte) (int, error) {
	if err := f.fs.fail("write"); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *stepFile) Sync() error {
	if err := f.fs.fail("fsync"); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *stepFS) CreateTemp(dir, pattern string) (persist.File, error) {
	if err := f.fail("create temp"); err != nil {
		return nil, err
	}
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &stepFile{File: file, fs: f}, nil
}

func (f *stepFS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	if err := f.fail("open"); err != nil {
		return nil, err
	}
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &stepFile{File: file, fs: f}, nil
}

func (f *stepFS) Rename(oldPath, newPath string) error {
	if err := f.fail("rename"); err != nil {
		return err
	}
	return f.FS.Rename(oldPath, newPath)
}

func (f *stepFS) Remove(path string) error {
	if err := f.fail("remove"); err != nil {
		return err
	}
	return f.FS.Remove(path)
}

func (f *stepFS) Truncate(path string, size int64) error {
	if err := f.fail("truncate"); err != nil {
		return err
	}
	return f.FS.Truncate(path, size)
}

func (f *stepFS) SyncDir(dir string) error {
	if err := f.fail("sync dir"); err != nil {
		return err
	}
	return f.FS.SyncDir(dir)
}

// TestRestoreFaultAtEveryStep injects a failure at each filesystem step of
// a restore over a durable dynamic index A and checks the outcome is
// all-or-nothing: a non-200 leaves A — with every acknowledged insert —
// in the live server and after a crash and reboot; a 200 leaves exactly
// the restored index B in both.
func TestRestoreFaultAtEveryStep(t *testing.T) {
	keysA := data.GenTweet(1500, 51)
	keysB := data.GenTweet(1200, 52)
	blobOf := func(shards int) []byte {
		src := New()
		ts := httptest.NewServer(src)
		defer ts.Close()
		mustPost(t, ts, "/v1/indexes", CreateRequest{
			Name: "b", Agg: "count", Dynamic: true, Keys: keysB, EpsAbs: 50, Shards: shards,
		}, nil)
		return mustGetRaw(t, ts, "/v1/indexes/b/marshal")
	}
	const ackA, ackA2 = 3e7, 3e7 + 5 // acknowledged inserts into A
	for _, tc := range []struct {
		name            string
		shardsA, shards int
	}{
		{"plain-over-plain", 0, 0},
		{"sharded-over-plain", 0, 3},
		{"plain-over-sharded", 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := blobOf(tc.shards)
			sawFail, sawOK := false, false
			for step := 1; ; step++ {
				dir := t.TempDir()
				fsys := &stepFS{FS: persist.OSFS()}
				s, err := NewDurable(Config{DataDir: dir, SnapshotInterval: -1, FS: fsys,
					Retry: persist.RetryPolicy{Attempts: 1}, Logf: func(string, ...any) {}})
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(s)
				mustPost(t, ts, "/v1/indexes", CreateRequest{
					Name: "ix", Agg: "count", Dynamic: true, Keys: keysA, EpsAbs: 50, Shards: tc.shardsA,
				}, nil)
				var ir InsertResponse
				mustPost(t, ts, "/v1/indexes/ix/insert", InsertRequest{Records: []Record{{Key: ackA}}}, &ir)
				if ir.Inserted != 1 || !ir.Durable {
					t.Fatalf("setup insert %+v", ir)
				}

				fsys.arm(step)
				var st StatsResponse
				resp := post(t, ts, "/v1/indexes/ix/restore", RestoreRequest{Blob: b64(blob)}, &st)
				fired := fsys.disarm()

				// want is the record count of the index that must be served,
				// mustHave/mustLack the acknowledged keys it must (not) answer.
				var want int
				var mustHave, mustLack []float64
				durable2 := false
				if resp.StatusCode == http.StatusOK {
					sawOK = true
					want, mustLack = len(keysB), []float64{ackA, ackA2}
				} else {
					sawFail = true
					if resp.StatusCode < 500 {
						t.Fatalf("step %d: restore answered %d, want 200 or 5xx", step, resp.StatusCode)
					}
					// A is still live and accepts inserts.
					ir = InsertResponse{}
					mustPost(t, ts, "/v1/indexes/ix/insert", InsertRequest{Records: []Record{{Key: ackA2}}}, &ir)
					if ir.Inserted != 1 {
						t.Fatalf("step %d: insert into A after failed restore %+v", step, ir)
					}
					durable2 = ir.Durable
					want, mustHave = len(keysA)+2, []float64{ackA, ackA2}
				}
				check := func(phase string, ts *httptest.Server) {
					t.Helper()
					if phase == "rebooted" && resp.StatusCode != http.StatusOK && !durable2 {
						// Acknowledged with durable:false: the crash may lose it.
						want, mustHave, mustLack = len(keysA)+1, []float64{ackA}, []float64{ackA2}
					}
					var got StatsResponse
					get(t, ts, "/v1/indexes/ix", &got)
					if got.Records != want {
						t.Fatalf("step %d (status %d) %s: %d records, want %d (durable2=%v)", step, resp.StatusCode, phase, got.Records, want, durable2)
					}
					for _, k := range mustHave {
						if c := exactCountAt(t, ts, "ix", k); c != 1 {
							t.Fatalf("step %d %s: acknowledged insert %g answered %g", step, phase, k, c)
						}
					}
					for _, k := range mustLack {
						if c := exactCountAt(t, ts, "ix", k); c != 0 {
							t.Fatalf("step %d %s: replaced index's insert %g answered %g", step, phase, k, c)
						}
					}
				}
				check("live", ts)
				ts.Close() // crash: no Close, no final snapshot

				s2 := newDurable(t, dir)
				ts2 := httptest.NewServer(s2)
				if rec := s2.Recovery(); rec.CorruptSkipped != 0 || rec.Indexes != 1 {
					t.Fatalf("step %d reboot: %+v", step, rec)
				}
				check("rebooted", ts2)
				ts2.Close()
				s2.Close()
				if !fired {
					break // the restore finished before reaching this step
				}
			}
			if !sawFail || !sawOK {
				t.Fatalf("fault sweep saw fail=%v ok=%v, want both", sawFail, sawOK)
			}
		})
	}
}

// TestCreatePersistFailure: a durable create whose snapshot cannot be
// written answers 5xx and leaves nothing behind, so the next boot finds no
// half-created index to skip as corrupt.
func TestCreatePersistFailure(t *testing.T) {
	keys := data.GenTweet(900, 53)
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			fsys := &stepFS{FS: persist.OSFS(), only: "create temp"}
			s, err := NewDurable(Config{DataDir: dir, SnapshotInterval: -1, FS: fsys,
				Retry: persist.RetryPolicy{Attempts: 1}, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s)
			fsys.arm(1) // the first snapshot's temp file
			var e errorResponse
			resp := post(t, ts, "/v1/indexes", CreateRequest{
				Name: "ix", Agg: "count", Dynamic: true, Keys: keys, EpsAbs: 50, Shards: shards,
			}, &e)
			if !fsys.disarm() {
				t.Fatal("create reached no filesystem write")
			}
			if resp.StatusCode < 500 {
				t.Fatalf("create with failing disk answered %d (%s), want 5xx", resp.StatusCode, e.Error)
			}
			resp = get(t, ts, "/v1/indexes/ix", nil)
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("failed create is registered: %d", resp.StatusCode)
			}
			ts.Close()
			s.Close()
			s2 := newDurable(t, dir)
			defer s2.Close()
			if rec := s2.Recovery(); rec.CorruptSkipped != 0 || rec.Indexes != 0 {
				t.Fatalf("reboot after failed create: %+v", rec)
			}
		})
	}
}

// legacyIndex and legacyFixture mirror testdata/datadir-v1.json: for each
// index, its stats and the answers to a fixed probe set, recorded by
// booting the checked-in data dir before the per-log durability path.
type legacyIndex struct {
	Stats  StatsResponse
	Ranges []QueryRequest
	Want   []QueryResponse
}

type legacyFixture struct {
	Recovery RecoverySummary
	Indexes  map[string]legacyIndex
}

// TestLegacyDataDirLoads boots a data dir written by an earlier version of
// the server: a static COUNT index, a plain dynamic SUM index with
// unsnapshotted WAL records, and a K=3 sharded dynamic COUNT index with
// records in two shard WALs. Recovery, stats and every probe answer must
// match what that version served, so the on-disk layout cannot drift.
func TestLegacyDataDirLoads(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "datadir-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want legacyFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "datadir-v1"))); err != nil {
		t.Fatal(err)
	}
	s := newDurable(t, dir)
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	rec := s.Recovery()
	rec.Duration = 0
	if rec != want.Recovery {
		t.Fatalf("recovery %+v, want %+v", rec, want.Recovery)
	}
	if len(want.Indexes) != 3 {
		t.Fatalf("fixture lists %d indexes, want 3", len(want.Indexes))
	}
	for name, w := range want.Indexes {
		var st StatsResponse
		get(t, ts, "/v1/indexes/"+name, &st)
		st.LastSnapshotUnix = 0
		if !reflect.DeepEqual(st, w.Stats) {
			t.Errorf("%s stats\n got %+v\nwant %+v", name, st, w.Stats)
		}
		for i, q := range w.Ranges {
			var got QueryResponse
			mustPost(t, ts, "/v1/indexes/"+name+"/query", q, &got)
			if got != w.Want[i] {
				t.Errorf("%s %+v: got %+v, want %+v", name, q, got, w.Want[i])
			}
		}
	}
}
