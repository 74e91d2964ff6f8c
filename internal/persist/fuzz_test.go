package persist

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// FuzzReadShardManifest feeds arbitrary bytes to the shard-manifest reader,
// a trust boundary read at every boot. It must never panic, every
// rejection must wrap ErrCorrupt, and a manifest it accepts must re-encode
// byte-identically through WriteShardManifest — so no two encodings can
// claim the same layout. Seeds live in testdata/fuzz/FuzzReadShardManifest.
func FuzzReadShardManifest(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.WriteShardManifest("seed", ShardManifest{Shards: 3, Bounds: []float64{-1.5, 2}}); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(s.ShardManifestPath("seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.ShardManifestPath("seed"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := s.ReadShardManifest("seed")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if err := s.WriteShardManifest("again", m); err != nil {
			t.Fatalf("accepted manifest %+v does not re-encode: %v", m, err)
		}
		again, err := os.ReadFile(s.ShardManifestPath("again"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted manifest %+v re-encodes as %x, read from %x", m, again, data)
		}
	})
}
