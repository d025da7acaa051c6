package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

func TestDefaultGeometryValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Paper(2).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryValidationRejects(t *testing.T) {
	cases := []func(*Geometry){
		func(g *Geometry) { g.ChunkSize = 100 },  // not page multiple
		func(g *Geometry) { g.ChunksPerRow = 0 }, // empty rows
		func(g *Geometry) { g.RowsPerZone = 2 },  // no room for data+parity
		func(g *Geometry) { g.NumZones = 0 },
		func(g *Geometry) { g.NumLanes = 0 },
		func(g *Geometry) { g.LaneSize = 100 },
		func(g *Geometry) { g.RangeLockBytes = 7 },
	}
	for i, mut := range cases {
		g := Default()
		mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	for _, g := range []Geometry{Default(), Paper(3)} {
		// Ordered region boundaries must be monotonic.
		bounds := []uint64{
			0, PageSize, // header primary
			PageSize, 2 * PageSize, // header replica
			BadPageRecOff(), BadPageRecOff() + PageSize,
			BadPageRecReplicaOff(), BadPageRecReplicaOff() + PageSize,
			g.LanesOff(), g.LanesReplicaOff(),
			g.LanesReplicaOff(), g.OverflowOff(),
			g.OverflowOff(), g.OverflowReplicaOff(),
			g.OverflowReplicaOff(), g.OverflowReplicaOff() + g.OverflowExts*g.OverflowExtSize,
			g.ZonesOff(), g.PoolSize(),
		}
		for i := 2; i < len(bounds); i += 2 {
			if bounds[i] < bounds[i-1] {
				t.Fatalf("region %d starts at %#x before previous region ends at %#x", i/2, bounds[i], bounds[i-1])
			}
		}
	}
}

func TestZoneArithmetic(t *testing.T) {
	g := Default()
	for z := uint64(0); z < g.NumZones; z++ {
		if g.ZoneHeaderOff(z) != g.ZoneBase(z) {
			t.Fatal("zone header must start the zone")
		}
		if g.ParityBase(z)+g.RowSize() != g.ZoneBase(z)+g.ZoneSize() {
			t.Fatal("parity row must end the zone")
		}
		// Chunk 0 begins the data rows.
		if g.ChunkBase(z, 0) != g.RowsBase(z) {
			t.Fatal("chunk 0 misplaced")
		}
		// Last chunk ends at parity base.
		last := g.ChunksPerZone() - 1
		if g.ChunkBase(z, last)+g.ChunkSize != g.ParityBase(z) {
			t.Fatal("last chunk must abut parity row")
		}
	}
}

func TestLocateRoundTrip(t *testing.T) {
	g := Default()
	f := func(z8, row8 uint8, col16 uint16) bool {
		z := uint64(z8) % g.NumZones
		row := uint64(row8) % g.DataRows()
		col := uint64(col16) % g.RowSize()
		off := g.RowByteOff(z, row, col)
		if !g.InZoneData(off) {
			return false
		}
		loc := g.Locate(off)
		return loc.Zone == z && loc.Row == row && loc.Col == col
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInZoneClassification(t *testing.T) {
	g := Default()
	if g.InZoneData(0) {
		t.Fatal("pool header is not zone data")
	}
	if g.InZoneData(g.ZoneBase(0)) {
		t.Fatal("zone header is not zone data")
	}
	if !g.InZoneData(g.RowsBase(0)) {
		t.Fatal("first data byte must classify as zone data")
	}
	if g.InZoneData(g.ParityBase(0)) {
		t.Fatal("parity row must not classify as zone data")
	}
	if !g.InZoneParity(g.ParityBase(0)) {
		t.Fatal("parity base must classify as parity")
	}
	if g.InZoneParity(g.RowsBase(0)) {
		t.Fatal("data must not classify as parity")
	}
	if g.InZoneData(g.PoolSize()) || g.InZoneParity(g.PoolSize()+100) {
		t.Fatal("beyond pool end misclassified")
	}
}

func TestLocatePanicsOutsideData(t *testing.T) {
	g := Default()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Locate(0)
}

// randomGeometry draws a valid geometry small enough to probe densely.
func randomGeometry(rng *rand.Rand) Geometry {
	for {
		g := Geometry{
			ChunkSize:       uint64(1+rng.Intn(5)) * PageSize, // not only powers of two
			ChunksPerRow:    uint64(1 + rng.Intn(7)),
			RowsPerZone:     uint64(3 + rng.Intn(40)),
			NumZones:        uint64(1 + rng.Intn(5)),
			NumLanes:        uint64(1 + rng.Intn(8)),
			LaneSize:        uint64(1+rng.Intn(3)) * PageSize,
			OverflowExts:    uint64(rng.Intn(4)),
			OverflowExtSize: uint64(rng.Intn(3)) * PageSize,
			RangeLockBytes:  uint64(1+rng.Intn(64)) * 8,
		}
		if g.Validate() == nil {
			return g
		}
	}
}

// TestResolvedMatchesReference holds the resolved geometry to the
// reference methods it replaces on the hot paths: for Default, Paper(n) and
// random valid geometries, at every region boundary and one byte either
// side of it and at random offsets, Locate's ok equals InZoneData, its
// location equals Geometry.Locate, LocateChunk names the same byte in
// chunk form, and ChunkBase/ParityOff/RowSize agree.
func TestResolvedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	geos := []Geometry{Default(), Paper(1), Paper(3)}
	for i := 0; i < 40; i++ {
		geos = append(geos, randomGeometry(rng))
	}
	for _, g := range geos {
		r := g.Resolve()
		if r.RowSize() != g.RowSize() {
			t.Fatalf("%+v: RowSize %d != %d", g, r.RowSize(), g.RowSize())
		}
		check := func(off uint64) {
			t.Helper()
			loc, ok := r.Locate(off)
			cl, cok := r.LocateChunk(off)
			if want := g.InZoneData(off); ok != want || cok != want {
				t.Fatalf("%+v: off %#x: Locate ok=%v LocateChunk ok=%v, InZoneData=%v", g, off, ok, cok, want)
			}
			if !ok {
				if loc != (Loc{}) || cl != (ChunkLoc{}) {
					t.Fatalf("%+v: off %#x: non-zero location outside zone data", g, off)
				}
				return
			}
			if want := g.Locate(off); loc != want {
				t.Fatalf("%+v: off %#x: Locate = %+v, reference %+v", g, off, loc, want)
			}
			if cl.Zone != loc.Zone || cl.Rel >= g.ChunkSize || cl.Chunk >= g.ChunksPerZone() ||
				g.ChunkBase(cl.Zone, cl.Chunk)+cl.Rel != off {
				t.Fatalf("%+v: off %#x: LocateChunk = %+v", g, off, cl)
			}
		}
		var edges []uint64
		edges = append(edges, 0, PageSize, g.LanesOff(), g.OverflowOff(), g.ZonesOff(), g.PoolSize(), ^uint64(0))
		for z := uint64(0); z < g.NumZones; z++ {
			edges = append(edges, g.ZoneBase(z), g.ZoneHeaderReplicaOff(z), g.RowsBase(z),
				g.ParityBase(z), g.ZoneBase(z)+g.ZoneSize())
			for row := uint64(0); row < g.DataRows(); row += 1 + g.DataRows()/4 {
				edges = append(edges, g.RowByteOff(z, row, 0))
			}
			for c := uint64(0); c < g.ChunksPerZone(); c += 1 + g.ChunksPerZone()/5 {
				edges = append(edges, g.ChunkBase(z, c))
				if r.ChunkBase(z, c) != g.ChunkBase(z, c) {
					t.Fatalf("%+v: ChunkBase(%d,%d) = %#x, reference %#x", g, z, c, r.ChunkBase(z, c), g.ChunkBase(z, c))
				}
			}
			for _, col := range []uint64{0, 1, g.RowSize() - 1} {
				if r.ParityOff(z, col) != g.ParityOff(z, col) {
					t.Fatalf("%+v: ParityOff(%d,%d) = %#x, reference %#x", g, z, col, r.ParityOff(z, col), g.ParityOff(z, col))
				}
			}
		}
		for _, e := range edges {
			check(e - 1) // wraps to the top of the address space at 0
			check(e)
			check(e + 1)
		}
		for i := 0; i < 2000; i++ {
			check(uint64(rng.Int63n(int64(g.PoolSize() + 2*PageSize))))
		}
	}
}

func TestObjHeaderRoundTrip(t *testing.T) {
	h := ObjHeader{Size: 4096, Type: 77, Csum: 0xDEADBEEF}
	var b [ObjHeaderSize]byte
	EncodeObjHeader(b[:], h)
	if got := DecodeObjHeader(b[:]); got != h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
	if h.UserSize() != 4096-ObjHeaderSize {
		t.Fatalf("UserSize = %d", h.UserSize())
	}
}

func TestObjChecksumIgnoresCsumField(t *testing.T) {
	obj := make([]byte, 128)
	EncodeObjHeader(obj, ObjHeader{Size: 128, Type: 5})
	copy(obj[ObjHeaderSize:], "payload payload payload")
	c1 := ObjChecksum(obj)
	// Store the checksum into the header; recomputation must not change.
	h := DecodeObjHeader(obj)
	h.Csum = c1
	EncodeObjHeader(obj, h)
	if c2 := ObjChecksum(obj); c2 != c1 {
		t.Fatalf("checksum depends on its own field: %#x vs %#x", c2, c1)
	}
	// But data changes must change it.
	obj[ObjHeaderSize] ^= 0xFF
	if ObjChecksum(obj) == c1 {
		t.Fatal("checksum insensitive to data change")
	}
}

func TestObjChecksumMatchesFlatAdler(t *testing.T) {
	obj := make([]byte, 200)
	for i := range obj {
		obj[i] = byte(i)
	}
	EncodeObjHeader(obj, ObjHeader{Size: 200, Type: 9})
	flat := append([]byte(nil), obj...)
	flat[12], flat[13], flat[14], flat[15] = 0, 0, 0, 0
	if got, want := ObjChecksum(obj), csum.Adler32(flat); got != want {
		t.Fatalf("ObjChecksum = %#x, flat Adler32 = %#x", got, want)
	}
}

func TestPoolHeaderRoundTrip(t *testing.T) {
	h := PoolHeader{
		Magic: Magic, Version: Version,
		Flags: FlagParity | FlagChecksums,
		UUID:  0xABCD, Seq: 7,
		Geo:    Default(),
		Root:   OID{Pool: 0xABCD, Off: 12345},
		RootSz: 64,
	}
	b := EncodePoolHeader(h)
	got, err := DecodePoolHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestPoolHeaderRejectsCorruption(t *testing.T) {
	b := EncodePoolHeader(PoolHeader{Magic: Magic, Version: Version, Geo: Default()})
	b[20] ^= 1
	if _, err := DecodePoolHeader(b); err == nil {
		t.Fatal("corrupt header accepted")
	}
	if _, err := DecodePoolHeader(b[:10]); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Wrong magic with a valid checksum.
	h := PoolHeader{Magic: 1234, Version: Version, Geo: Default()}
	if _, err := DecodePoolHeader(EncodePoolHeader(h)); err == nil {
		t.Fatal("bad magic accepted")
	}
	h = PoolHeader{Magic: Magic, Version: 99, Geo: Default()}
	if _, err := DecodePoolHeader(EncodePoolHeader(h)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestZoneHeaderRoundTrip(t *testing.T) {
	h := ZoneHeader{ZoneIdx: 3, Seq: 9, Chunks: 60}
	got, err := DecodeZoneHeader(EncodeZoneHeader(h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
	b := EncodeZoneHeader(h)
	b[0] ^= 1
	if _, err := DecodeZoneHeader(b); err == nil {
		t.Fatal("corrupt zone header accepted")
	}
}

func TestBadPageRecordRoundTrip(t *testing.T) {
	r := BadPageRecord{Pages: []uint64{4096, 8192, 1 << 20}}
	b, err := EncodeBadPageRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	got := DecodeBadPageRecord(b)
	if len(got.Pages) != 3 || got.Pages[0] != 4096 || got.Pages[2] != 1<<20 {
		t.Fatalf("round trip: %+v", got)
	}
	// Corruption decodes as empty, never as garbage repairs.
	b[16] ^= 0xFF
	if got := DecodeBadPageRecord(b); len(got.Pages) != 0 {
		t.Fatalf("corrupt record decoded: %+v", got)
	}
	// Absurd count decodes as empty.
	for i := 0; i < 8; i++ {
		b[i] = 0xFF
	}
	if got := DecodeBadPageRecord(b); len(got.Pages) != 0 {
		t.Fatal("oversized record accepted")
	}
	if _, err := EncodeBadPageRecord(BadPageRecord{Pages: make([]uint64, maxBadPages+1)}); err == nil {
		t.Fatal("oversized record encoded")
	}
}

func TestReadReplicatedPrefersHigherSeq(t *testing.T) {
	dev := nvm.New(64*1024, nvm.Options{TrackPersistence: true})
	mk := func(seq uint64) []byte {
		b := make([]byte, 32)
		b[0] = byte(seq)
		return b
	}
	dev.WriteAt(0, mk(1))
	dev.WriteAt(4096, mk(5))
	decode := func(b []byte) (uint64, error) { return uint64(b[0]), nil }
	got, err := ReadReplicated(dev, 0, 4096, 32, decode)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("picked seq %d, want 5", got[0])
	}
}

func TestReadReplicatedSurvivesPoisonedPrimary(t *testing.T) {
	dev := nvm.New(64*1024, nvm.Options{TrackPersistence: true})
	dev.WriteAt(4096, []byte{42})
	dev.Poison(0)
	decode := func(b []byte) (uint64, error) { return 0, nil }
	got, err := ReadReplicated(dev, 0, 4096, 1, decode)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 {
		t.Fatalf("got %d from replica, want 42", got[0])
	}
	// Both copies gone: error.
	dev.Poison(4096)
	if _, err := ReadReplicated(dev, 0, 4096, 1, decode); err == nil {
		t.Fatal("expected failure with both copies poisoned")
	}
}

// BenchmarkLocate measures the per-access address arithmetic: the resolved
// form the read and commit paths use, beside the reference pair it
// replaced there.
func BenchmarkLocate(b *testing.B) {
	g := Paper(8)
	span := g.PoolSize() - g.ZonesOff()
	b.Run("resolved", func(b *testing.B) {
		r := g.Resolve()
		var sink uint64
		off := g.ZonesOff()
		for i := 0; i < b.N; i++ {
			off = g.ZonesOff() + (off*2654435761+64)%span
			if loc, ok := r.LocateChunk(off); ok {
				sink += loc.Chunk
			}
		}
		locateSink = sink
	})
	b.Run("reference", func(b *testing.B) {
		var sink uint64
		off := g.ZonesOff()
		for i := 0; i < b.N; i++ {
			off = g.ZonesOff() + (off*2654435761+64)%span
			if g.InZoneData(off) {
				sink += g.Locate(off).Row
			}
		}
		locateSink = sink
	})
}

var locateSink uint64
