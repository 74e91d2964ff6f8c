package polyfit_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	polyfit "repro"
)

func shardedDataset(n int, seed int64) (keys, measures []float64) {
	rng := rand.New(rand.NewSource(seed))
	set := make(map[float64]bool, n)
	for len(set) < n {
		set[math.Round(rng.NormFloat64()*5e4)/4] = true
	}
	keys = make([]float64, 0, n)
	for k := range set {
		keys = append(keys, k)
	}
	sort.Float64s(keys)
	measures = make([]float64, n)
	for i := range measures {
		measures[i] = 100 + 50*math.Sin(float64(i)/30) + rng.Float64()*10
	}
	return keys, measures
}

// query answers Range{lo, hi} and returns the value alone.
func query(ix polyfit.Index, lo, hi float64) float64 {
	res, _ := ix.Query(polyfit.Range{Lo: lo, Hi: hi})
	return res.Value
}

// TestShardedIndexPublic exercises the sharded layout through the public
// surface: build, bound-reporting queries, round trip, stats.
func TestShardedIndexPublic(t *testing.T) {
	keys, measures := shardedDataset(2000, 1)
	ix, err := polyfit.New(polyfit.Spec{Agg: polyfit.Sum, Keys: keys, Measures: measures},
		polyfit.WithMaxError(40), polyfit.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sh, ok := ix.(polyfit.Sharder)
	if !ok {
		t.Fatalf("WithShards index %T is not a Sharder", ix)
	}
	if _, ok := ix.(polyfit.Inserter); ok {
		t.Fatal("static sharded index claims Inserter")
	}
	if sh.NumShards() != 4 {
		t.Fatalf("NumShards = %d", sh.NumShards())
	}
	st := ix.Stats()
	if st.Shards != 4 || st.Records != len(keys) || st.KeyLo != keys[0] || st.KeyHi != keys[len(keys)-1] {
		t.Fatalf("stats %+v", st)
	}
	if got := len(sh.ShardStats()); got != 4 {
		t.Fatalf("ShardStats len %d", got)
	}
	exact := func(l, u float64) float64 {
		s := 0.0
		for i, k := range keys {
			if k > l && k <= u {
				s += measures[i]
			}
		}
		return s
	}
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		i, j := rng.Intn(len(keys)), rng.Intn(len(keys))
		if i > j {
			i, j = j, i
		}
		res, err := ix.Query(polyfit.Range{Lo: keys[i], Hi: keys[j]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bound <= 0 || res.Bound > 4*40 {
			t.Fatalf("bound %g out of range (0, 160]", res.Bound)
		}
		if e := exact(keys[i], keys[j]); math.Abs(res.Value-e) > res.Bound+1e-9*(1+e) {
			t.Fatalf("(%g,%g]: est %g exact %g bound %g", keys[i], keys[j], res.Value, e, res.Bound)
		}
	}
	// Round trip.
	blob, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if polyfit.DetectBlob(blob) != polyfit.BlobShardedStatic {
		t.Fatalf("DetectBlob = %v", polyfit.DetectBlob(blob))
	}
	loaded, err := polyfit.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	a := query(ix, keys[3], keys[len(keys)-3])
	b := query(loaded, keys[3], keys[len(keys)-3])
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("round-trip drift: %g vs %g", a, b)
	}
}

// TestShardedDynamicPublic exercises the insertable sharded layout,
// including per-shard rebuilds, the dynamic round trip, and reassembly
// from per-shard blobs.
func TestShardedDynamicPublic(t *testing.T) {
	keys, _ := shardedDataset(2400, 3)
	var base, ins []float64
	for i, k := range keys {
		if i%4 == 3 {
			ins = append(ins, k)
		} else {
			base = append(base, k)
		}
	}
	sd, err := polyfit.New(polyfit.Spec{Agg: polyfit.Count, Keys: base},
		polyfit.WithMaxError(30), polyfit.WithShards(4), polyfit.WithDynamic())
	if err != nil {
		t.Fatal(err)
	}
	sdIns, ok := sd.(polyfit.Inserter)
	if !ok {
		t.Fatalf("sharded dynamic index %T is not an Inserter", sd)
	}
	snap, ok := sd.(polyfit.ShardSnapshotter)
	if !ok {
		t.Fatalf("sharded dynamic index %T is not a ShardSnapshotter", sd)
	}
	for _, k := range ins {
		if err := sdIns.Insert(k, 1); err != nil {
			t.Fatalf("insert %g: %v", k, err)
		}
	}
	if got := sd.Stats().Records; got != len(keys) {
		t.Fatalf("Records %d, want %d", got, len(keys))
	}
	if err := sdIns.Insert(ins[0], 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	res, err := sd.Query(polyfit.Range{Lo: keys[0] - 1, Hi: keys[len(keys)-1] + 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-float64(len(keys))) > res.Bound {
		t.Fatalf("full-span count %g ± %g, want %d", res.Value, res.Bound, len(keys))
	}
	if err := snap.RebuildShard(2); err != nil {
		t.Fatal(err)
	}
	blob, err := sd.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if polyfit.DetectBlob(blob) != polyfit.BlobShardedDynamic {
		t.Fatalf("DetectBlob = %v", polyfit.DetectBlob(blob))
	}
	restored, err := polyfit.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	rs, rsb := restored.Stats(), sd.Stats()
	if rs.Records != rsb.Records || rs.BufferLen != rsb.BufferLen {
		t.Fatalf("restored records/buffer %d/%d, want %d/%d", rs.Records, rs.BufferLen, rsb.Records, rsb.BufferLen)
	}
	ra := query(sd, base[10], base[1500])
	rb := query(restored, base[10], base[1500])
	if math.Float64bits(ra) != math.Float64bits(rb) {
		t.Fatalf("restored drift: %g vs %g", ra, rb)
	}
	// Per-shard marshal + assembly round trip (the recovery path).
	blobs := make([][]byte, snap.NumShards())
	for i := range blobs {
		if blobs[i], err = snap.MarshalShard(i); err != nil {
			t.Fatal(err)
		}
	}
	assembled, err := polyfit.Assemble(snap.Bounds(), blobs)
	if err != nil {
		t.Fatal(err)
	}
	rc := query(assembled, base[10], base[1500])
	if math.Float64bits(ra) != math.Float64bits(rc) {
		t.Fatalf("assembled drift: %g vs %g", ra, rc)
	}
}
