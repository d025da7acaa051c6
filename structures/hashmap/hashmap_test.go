package hashmap

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/kvtest"
)

// TestSegmentFillsOneSlot pins the layout's sizing (see the package
// comment's departure from Table 3's 40-byte entry): a segment and its
// 16-byte object header take one 1,024-byte allocator slot exactly, one
// more inline slot would spill into the next size class, and the
// occupancy bitmap is one word.
func TestSegmentFillsOneSlot(t *testing.T) {
	if segSize != 1008 || segSlots > 64 {
		t.Fatalf("segment %d bytes for %d slots, want 1,008 and a one-word bitmap", segSize, segSlots)
	}
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	slot := func(size uint64) uint64 {
		before := p.LiveObjects().Bytes
		if err := p.Run(func(tx *pangolin.Tx) error { _, _, err := tx.Alloc(size, typeSegment); return err }); err != nil {
			t.Fatal(err)
		}
		return p.LiveObjects().Bytes - before
	}
	if got := slot(segSize); got != 1024 {
		t.Fatalf("a segment takes a %d-byte slot, want 1,024", got)
	}
	if got := slot(segSize + pairSize); got <= 1024 {
		t.Fatalf("a 62-slot segment takes a %d-byte slot, want the next size class", got)
	}
}

// harness adapts the map to kvtest with a chosen initial table size (small
// tables put growth and migration inside the suites' few dozen keys).
func harness(buckets uint64) kvtest.Harness {
	return kvtest.Harness{
		Make: func(p *pangolin.Pool) (kv.Map, error) { return NewWithBuckets(p, buckets) },
		Attach: func(p *pangolin.Pool, a pangolin.OID) (kv.Map, error) {
			return Attach(p, a)
		},
	}
}

func TestConformance(t *testing.T) {
	kvtest.RunAll(t, harness(InitialBuckets))
}

// TestConformanceWhileMigrating reruns the suite on a one-segment table,
// which doubles at the 46th key and again at the 92nd, 184th and 367th:
// the larger cases run next to, or as part of, several migrations.
func TestConformanceWhileMigrating(t *testing.T) {
	kvtest.RunAll(t, harness(4))
}

// TestGrowthAllModes takes the default table through three doublings (at
// 778, 1,556 and 3,112 keys; the last migration ends by 3,180) under all
// seven modes. Each migration step writes the new segments as objects of
// its own transaction, whose later inserts modify them — objects the
// undo-log modes must open in the transaction that allocated them — and
// frees an old chain, the last step the old directory; the short run
// crosses all three in the first doubling.
func TestGrowthAllModes(t *testing.T) {
	keys := 3300
	if testing.Short() {
		keys = 900 // the first doubling and its migration
	}
	kvtest.RunGrowth(t, harness(InitialBuckets), keys)
}

// doublings is how many times a table of segs segments doubles while
// Count climbs from 0 to n, by the growth rule alone.
func doublings(segs, n uint64) int {
	d := 0
	for c := uint64(1); c <= n; c++ {
		if c*growDen > growNum*segs*segSlots {
			segs, d = 2*segs, d+1
		}
	}
	return d
}

// chain lists the segments of a directory slot's chain.
func chain(t testing.TB, m *Map, dirOID pangolin.OID, s uint64) (segs []pangolin.OID) {
	t.Helper()
	tb, err := readTable(m.p.Get, dirOID)
	if err != nil {
		t.Fatal(err)
	}
	for seg := oidAt(tb.dir, segOff(s)); !seg.IsNil(); {
		segs = append(segs, seg)
		img, err := readSeg(m.p.Get, seg)
		if err != nil {
			t.Fatal(err)
		}
		seg = oidAt(img, ovfOff)
	}
	return segs
}

// written reports, slot by slot from index from on, how many segments
// each chain of a directory holds (0 while the slot is nil). An old table's
// slots below the cursor name freed chains and are not read.
func written(t testing.TB, m *Map, dirOID pangolin.OID, from uint64) (lens []int) {
	t.Helper()
	tb, err := readTable(m.p.Get, dirOID)
	if err != nil {
		t.Fatal(err)
	}
	for s := from; s < tb.n; s++ {
		lens = append(lens, len(chain(t, m, dirOID, s)))
	}
	return lens
}

// wantLive is the number of live objects the map should own: the anchor,
// each table's directory, every segment of the current table's chains and
// every segment of the old table's chains from the cursor on. A segment or
// directory a migration failed to free is live but not counted here.
func wantLive(t *testing.T, m *Map) int {
	t.Helper()
	a := readAnchor(t, m)
	live := 2
	count := func(lens []int) {
		for _, n := range lens {
			live += n
		}
	}
	count(written(t, m, a.Table, 0))
	if !a.Old.IsNil() {
		live++
		count(written(t, m, a.Old, a.Cursor))
	}
	return live
}

// TestGrowth pushes past the growth threshold so the table doubles and
// migrates, and verifies every key survives and every old chain and the
// old directory are freed.
func TestGrowth(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if live := p.LiveObjects().Objects; live != 2 {
		t.Fatalf("%d live objects in an empty map, want the anchor and a directory of nil slots", live)
	}
	const segs = (InitialBuckets + segSlots - 1) / segSlots // 17
	const n = 800                                           // the 778th insert crosses ¾ of 17·61 slots; 17 more finish the migration
	for k := uint64(0); k < n; k++ {
		if err := m.Insert(k, k^0xA5A5); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		// Exact at every step: across the growth, each old chain's free
		// as the cursor leaves it, and the old directory's.
		if live, want := p.LiveObjects().Objects, wantLive(t, m); live != want {
			t.Fatalf("after insert %d: %d live objects, want %d (anchor %+v)", k, live, want, readAnchor(t, m))
		}
	}
	a := readAnchor(t, m)
	tb, err := readTable(p.Get, a.Table)
	if err != nil {
		t.Fatal(err)
	}
	if tb.n != 2*segs {
		t.Fatalf("table has %d segments, want %d", tb.n, 2*segs)
	}
	for k := uint64(0); k < n; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil || !ok || v != k^0xA5A5 {
			t.Fatalf("lookup %d after growth: (%d,%v,%v)", k, v, ok, err)
		}
	}
	if cnt, _ := m.Len(); cnt != n {
		t.Fatalf("len %d, want %d", cnt, n)
	}
	if !a.Old.IsNil() || a.Cursor != 0 {
		t.Fatalf("migration still running: old %v cursor %d", a.Old, a.Cursor)
	}
	// 800 keys over 34 segments leave none unwritten and none overflowing:
	// no object per key.
	if live := p.LiveObjects().Objects; live != 2+2*segs {
		t.Fatalf("%d live objects, want %d: anchor + directory + every segment", live, 2+2*segs)
	}
}

// TestManyKeys loads 100,000 keys into one pool of pglserve's shape — eight
// 1 MB zones. As one bucket-array object the table died at the 65,537th
// key: the next array, 1 MB and a header, is more than a zone holds.
func TestManyKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestBoundedWork fills a map past the same size")
	}
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 8
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: geo, DisableTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const keys, batch = 100000, 50
	key := func(i int) uint64 { return uint64(i)*0x9E3779B1 + 3 }
	for i := 0; i < keys; i += batch {
		if err := p.Run(func(tx *pangolin.Tx) error {
			for j := i; j < i+batch; j++ {
				if err := m.InsertTx(tx, key(j), uint64(j)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("inserting keys %d..%d: %v", i, i+batch, err)
		}
	}
	for i := 0; i < keys; i++ {
		if v, ok, err := m.Lookup(key(i)); err != nil || !ok || v != uint64(i) {
			t.Fatalf("lookup key %d = (%d,%v,%v)", i, v, ok, err)
		}
	}
	if n, _ := m.Len(); n != keys {
		t.Fatalf("len %d, want %d", n, keys)
	}
}

func TestAttachRefusesOldAnchor(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	refused := func(what string, build func(tx *pangolin.Tx) (pangolin.OID, error)) {
		t.Helper()
		var old pangolin.OID
		if err := p.Run(func(tx *pangolin.Tx) (err error) { old, err = build(tx); return err }); err != nil {
			t.Fatal(err)
		}
		if _, err := Attach(p, old); !errors.Is(err, ErrAnchorFormat) {
			t.Fatalf("Attach on %s: %v, want ErrAnchorFormat", what, err)
		}
	}
	// withTable builds today's anchor over a table of the given type whose
	// user data starts with the header words.
	withTable := func(tx *pangolin.Tx, typ uint32, size uint64, header ...uint64) (pangolin.OID, []byte, error) {
		aOID, a, err := pangolin.Alloc[anchor](tx, typeAnchor)
		if err != nil {
			return aOID, nil, err
		}
		var table []byte
		if a.Table, table, err = tx.Alloc(size, typ); err == nil {
			for i, w := range header {
				table[8*i] = byte(w)
			}
		}
		return aOID, table, err
	}
	// The pre-incremental-growth anchor: {Table OID, Count}, 24 bytes.
	refused("a 24-byte anchor", func(tx *pangolin.Tx) (pangolin.OID, error) {
		oid, _, err := tx.Alloc(24, typeAnchor)
		return oid, err
	})
	// The pre-segment map: today's anchor over one bucket-array object,
	// {bucket count, reserved word, one OID per bucket}, which carried the
	// anchor's type code.
	refused("a bucket-array table", func(tx *pangolin.Tx) (pangolin.OID, error) {
		oid, _, err := withTable(tx, typeAnchor, 16+8*16, 8)
		return oid, err
	})
	// The chained segment layout: a directory whose header counts buckets
	// (8 buckets fit one 63-bucket segment, one slot).
	refused("a directory counting buckets", func(tx *pangolin.Tx) (pangolin.OID, error) {
		oid, _, err := withTable(tx, typeDir, segOff(1), 8)
		return oid, err
	})
	// The same layout where buckets and segments agree (one bucket): its
	// written segment holds chain heads under the old type.
	refused("a segment of chain heads", func(tx *pangolin.Tx) (pangolin.OID, error) {
		oid, dir, err := withTable(tx, typeDir, segOff(1), 1)
		if err != nil {
			return oid, err
		}
		seg, _, err := tx.Alloc(63*oidSize, typeChainSegment)
		putOID(dir, segOff(0), seg)
		return oid, err
	})
}

// readAnchor copies the committed anchor.
func readAnchor(t testing.TB, m *Map) anchor {
	t.Helper()
	a, err := pangolin.GetFromPool[anchor](m.p, m.anchor)
	if err != nil {
		t.Fatal(err)
	}
	return *a
}

// TestBoundedWork fills one map to 200,000 keys, six times past the seed's
// 32,768-entry cliff, 32 inserts to a transaction, and holds every
// transaction to constants that do not know the table's size: objects
// opened, bytes logged and bytes micro-buffered, which as one bucket-array
// object reached 3 MB here. Counts from Pool.Stats(), not clocks.
//
// The log bound is a lane and one overflow extent. Inside a migration
// window each insert migrates a chain, logging its two new segments whole
// (~2 KB), so 32 inserts log about 66 KB: more than a 32 KB lane, and the
// rest spills into one of the pool's 64 KB overflow extents. The pool has
// 32 of them and a commit returns its extents when it ends, so a
// transaction that needs one cannot meet "transaction log full" unless
// 31 other transactions hold extents at that moment. A shard's
// MaxBatch-sized group needs two (TestMigrationGroupFitsLog in
// internal/shard).
func TestBoundedWork(t *testing.T) {
	keys := 200000
	if testing.Short() {
		keys = 40000 // still past the old cliff, two growths later
	}
	const batch = 32
	// Per insert: its segment and an overflow segment; per migration step
	// an old chain of two segments and the two new ones. Per transaction:
	// the anchor, both directories and a finishing growth's next one.
	const maxObjs = batch*(2+4) + 4
	// The largest object opened is the directory (139 KB for the last
	// table); the bucket array it replaces was 3.1 MB.
	const maxMBuf = 256 << 10
	geo := pangolin.DefaultGeometry() // 32 KB lanes, 64 KB overflow extents, as pglserve
	geo.ChunkSize, geo.ChunksPerRow, geo.NumZones = 64<<10, 8, 4
	maxLog := geo.LaneSize + geo.OverflowExtSize
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: geo, DisableTracking: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	var worstObjs, worstLog uint64
	growths := 0
	table := readAnchor(t, m).Table
	for i := 0; i < keys; i += batch {
		objs, logged := st.TxObjects.Load(), st.LoggedBytes.Load()
		if err := p.Run(func(tx *pangolin.Tx) error {
			for j := i; j < i+batch; j++ {
				if err := m.InsertTx(tx, uint64(j)*2654435761+1, uint64(j)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("inserting keys %d..%d: %v", i, i+batch, err)
		}
		worstObjs = max(worstObjs, st.TxObjects.Load()-objs)
		worstLog = max(worstLog, st.LoggedBytes.Load()-logged)
		if a := readAnchor(t, m); a.Table != table {
			table = a.Table
			growths++
		}
	}
	t.Logf("%d keys, %d growths: at most %d objects and %d log bytes in one transaction, micro-buffer high water %d bytes",
		keys, growths, worstObjs, worstLog, st.MBufHighWater.Load())
	if worstObjs > maxObjs {
		t.Errorf("a transaction opened %d objects, bound %d", worstObjs, maxObjs)
	}
	if worstLog > maxLog {
		t.Errorf("a transaction logged %d bytes, bound %d (a lane and one overflow extent)", worstLog, maxLog)
	}
	if hw := st.MBufHighWater.Load(); hw > maxMBuf {
		t.Errorf("micro-buffers reached %d bytes, bound %d", hw, maxMBuf)
	}
	if want := doublings((InitialBuckets+segSlots-1)/segSlots, uint64(keys)); growths != want {
		t.Errorf("%d growths, want %d", growths, want)
	}
	if n, _ := m.Len(); n != uint64(keys) {
		t.Fatalf("len %d, want %d", n, keys)
	}
	for _, j := range []int{0, 1, keys / 2, keys - 1} {
		if v, ok, err := m.Lookup(uint64(j)*2654435761 + 1); err != nil || !ok || v != uint64(j) {
			t.Fatalf("lookup key %d = (%d,%v,%v)", j, v, ok, err)
		}
	}
}

// TestMidMigrationSemantics walks a migration one step at a time — 8 old
// segments, so cursors 0 to 7 and done — and at every position checks
// that each key is visible exactly once to Lookup, LookupTx and Scan, and
// that the pool holds exactly the objects the map accounts for. The steps
// are driven by each kind of operation, including the removal of a key that
// still lives in the old table and an insert that lands there.
func TestMidMigrationSemantics(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const segs, span = 8, 600 // keys below span are checked at every step
	m, err := NewWithBuckets(p, segs*segSlots)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64]uint64)
	for k := uint64(0); k <= segs*segSlots*growNum/growDen; k++ { // the 367th insert starts the growth
		if err := m.Insert(k, k+1000); err != nil {
			t.Fatal(err)
		}
		model[k] = k + 1000
	}
	check := func(wantCursor uint64, migrating bool) {
		t.Helper()
		a := readAnchor(t, m)
		if a.Old.IsNil() == migrating || a.Cursor != wantCursor || a.Count != uint64(len(model)) {
			t.Fatalf("anchor {old %v cursor %d count %d}, want migrating=%v cursor %d count %d",
				a.Old, a.Cursor, a.Count, migrating, wantCursor, len(model))
		}
		if live, want := p.LiveObjects().Objects, wantLive(t, m); live != want {
			t.Fatalf("cursor %d: %d live objects, want %d", wantCursor, live, want)
		}
		seen := make(map[uint64]int)
		if err := m.Scan(0, ^uint64(0), func(k, v uint64) bool {
			seen[k]++
			if model[k] != v {
				t.Fatalf("cursor %d: scan yielded (%d,%d), model has %d", wantCursor, k, v, model[k])
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(model) {
			t.Fatalf("cursor %d: scan visited %d keys of %d", wantCursor, len(seen), len(model))
		}
		if err := p.Run(func(tx *pangolin.Tx) error {
			for k := uint64(0); k < span; k++ {
				want, present := model[k]
				v, ok, err := m.Lookup(k)
				if err != nil || ok != present || (ok && v != want) || seen[k] > 1 {
					t.Fatalf("cursor %d: Lookup(%d) = (%d,%v,%v), scan saw it %d times, model (%d,%v)",
						wantCursor, k, v, ok, err, seen[k], want, present)
				}
				if v, ok, err = m.LookupTx(tx, k); err != nil || ok != present || (ok && v != want) {
					t.Fatalf("cursor %d: LookupTx(%d) = (%d,%v,%v), model (%d,%v)", wantCursor, k, v, ok, err, want, present)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// inOld picks a key (present or not) whose chain is still in the old
	// table once the cursor stands at cursor.
	inOld := func(cursor uint64, present bool) uint64 {
		for k := uint64(0); k < span; k++ {
			if _, ok := model[k]; ok == present && hash(k)%segs >= cursor {
				return k
			}
		}
		t.Fatal("no such key")
		return 0
	}
	check(0, true)

	k := inOld(1, true) // the remove first steps to cursor 1, then deletes from the old table
	if ok, err := m.Remove(k); err != nil || !ok {
		t.Fatalf("remove of old-table key %d: (%v,%v)", k, ok, err)
	}
	delete(model, k)
	check(1, true)

	k = inOld(2, false) // a new key whose home is still the old table
	if err := m.Insert(k, 7); err != nil {
		t.Fatal(err)
	}
	model[k] = 7
	check(2, true)

	k = inOld(3, true) // update in place, in the old table
	if err := m.Insert(k, 8); err != nil {
		t.Fatal(err)
	}
	model[k] = 8
	check(3, true)

	if ok, err := m.Remove(span + 1); err != nil || ok { // a miss still migrates
		t.Fatalf("remove of a missing key: (%v,%v)", ok, err)
	}
	check(4, true)

	// Two steps in one transaction, which then aborts: nothing moves.
	_ = p.Run(func(tx *pangolin.Tx) error {
		for _, k := range []uint64{span + 2, span + 3} {
			if err := m.InsertTx(tx, k, 1); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok, _ := m.LookupTx(tx, span+2); !ok || v != 1 {
			t.Fatal("own uncommitted insert not visible")
		}
		return errors.New("abort")
	})
	check(4, true)

	for cursor := uint64(5); cursor < segs; cursor++ {
		k := 500 + cursor
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		model[k] = k
		check(cursor, true)
	}
	if err := m.Insert(590, 590); err != nil { // migrates the last chain, frees the old table
		t.Fatal(err)
	}
	model[590] = 590
	check(0, false)
	// The anchor, the new directory and its 16 segments, all written.
	if got := p.LiveObjects().Objects; got != 2+2*segs {
		t.Fatalf("%d live objects after the last step, want %d", got, 2+2*segs)
	}
}

// inverse is a's multiplicative inverse mod 2^64 (a odd), by Newton's
// iteration: each step doubles the correct low bits.
func inverse(a uint64) uint64 {
	x := a // a·a ≡ 1 mod 8: three bits
	for range 5 {
		x *= 2 - a*x
	}
	return x
}

// colliding returns n distinct keys whose hashes all end in the 20 bits
// low: with a power-of-two segment count up to 2^20 they share one
// segment, while their high bits, and so their home slots, differ.
func colliding(n int, low uint64) []uint64 {
	inv := inverse(hash(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = (uint64(i+1)*0xD6E8FEB86659FD93<<20 | low) * inv
	}
	return keys
}

// TestMigrationCrashWindow crashes at every persistence point of a
// migration's transactions, under strict and random-eviction crash images.
// OneSegment migrates a one-segment table: the growth, the step that moves
// its only chain and frees it and the old directory, and two operations
// past it. SegmentBoundary sweeps the whole migration of a four-segment
// table, each step one old chain, driven by a remove from, an insert into
// and an update in the old table, through the step that frees the old
// directory and one past it. OverflowChain links an overflow segment onto a
// full old chain mid-migration and then migrates that chain; LinkOverflow
// links one in a table that is not growing and works on both segments of
// the chain.
func TestMigrationCrashWindow(t *testing.T) {
	modes := []pangolin.CrashMode{pangolin.CrashStrict, pangolin.CrashEvictRandom}
	insert := func(name string, k, v uint64) kvtest.CrashStep {
		return kvtest.CrashStep{Name: name,
			Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(k, v) },
			Post: func(mod map[uint64]uint64) { mod[k] = v }}
	}
	remove := func(name string, k uint64) kvtest.CrashStep {
		return kvtest.CrashStep{Name: name,
			Run:  func(p *pangolin.Pool, m kv.Map) error { _, err := m.Remove(k); return err },
			Post: func(mod map[uint64]uint64) { delete(mod, k) }}
	}
	// prefill inserts keys (value i*3 for the i-th) in one transaction.
	prefill := func(keys []uint64) (func(tx *pangolin.Tx, m kv.Map) error, map[uint64]uint64) {
		base := make(map[uint64]uint64)
		for i, k := range keys {
			base[k] = uint64(i) * 3
		}
		return func(tx *pangolin.Tx, m kv.Map) error {
			for i, k := range keys {
				if err := m.InsertTx(tx, k, uint64(i)*3); err != nil {
					return err
				}
			}
			return nil
		}, base
	}
	seq := func(keys []uint64, steps ...kvtest.CrashStep) kvtest.CrashSequence {
		fill, base := prefill(keys)
		return kvtest.CrashSequence{
			Geometry: pangolin.DefaultGeometry(), // two zones: images are copied and scrubbed at every point
			Prefill:  fill,
			Base:     base,
			Steps:    steps,
			Modes:    modes,
		}
	}
	upTo := func(n uint64) (keys []uint64) {
		for k := uint64(0); k < n; k++ {
			keys = append(keys, k)
		}
		return keys
	}

	t.Run("OneSegment", func(t *testing.T) {
		// 45 keys fill ¾ of the one segment; the 46th starts the growth and
		// the next operation moves the whole table.
		kvtest.RunCrashSequence(t, harness(segSlots), seq(upTo(45),
			insert("growth", 1000, 1),
			remove("remove, migrating the only chain", 3),
			insert("insert", 1001, 2),
			insert("update", 5, 3)))
	})

	t.Run("SegmentBoundary", func(t *testing.T) {
		const segs, nkeys = 4, 4 * segSlots * growNum / growDen // 183 keys; the 184th starts the growth
		// inOld picks a key among the first nkeys (present) or past them
		// (absent) still in the old table once the cursor stands at cursor.
		inOld := func(cursor uint64, present bool, not uint64) uint64 {
			for k := uint64(0); ; k++ {
				if (k < nkeys) == present && k != not && hash(k)%segs >= cursor {
					return k
				}
			}
		}
		rm := inOld(1, true, ^uint64(0))
		steps := []kvtest.CrashStep{
			insert("growth", 1000, 1),
			remove("remove from old table", rm),
			insert("insert into old table", inOld(2, false, ^uint64(0)), 2),
			insert("update in old table", inOld(3, true, rm), 3),
			insert("last step", 1001, 4),
			insert("insert", 1002, 5),
		}
		kvtest.RunCrashSequence(t, harness(segs*segSlots), seq(upTo(nkeys), steps...))
	})

	// The 20 low hash bits collide for these keys, so in a two-segment
	// table they share segment 1 and, after the growth, segment 1 of four.
	hot := colliding(64, 1)

	t.Run("OverflowChain", func(t *testing.T) {
		// Segment 1 full with 61 colliding keys, segment 0 holding 30
		// others. The 92nd key starts the growth; the next insert migrates
		// segment 0, then meets the full old chain and links it an overflow
		// segment; the remove after it migrates that two-segment chain into
		// a new one of 62 pairs, and frees it and the old directory.
		keys := append([]uint64(nil), hot[:segSlots]...)
		for k := uint64(0); len(keys) < 91; k++ {
			if hash(k)%2 == 0 {
				keys = append(keys, k)
			}
		}
		var grow uint64
		for grow = 1000; hash(grow)%2 != 0; grow++ {
		}
		sq := seq(keys,
			insert("growth", grow, 1),
			insert("link overflow in old table", hot[61], 2),
			remove("migrate the chain", hot[0]),
			insert("update in overflow", hot[61], 3),
			insert("insert", hot[62], 4))
		// Without crashes first, to show the window does what it says.
		p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: sq.Geometry})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		m, err := NewWithBuckets(p, 2*segSlots)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(func(tx *pangolin.Tx) error { return sq.Prefill(tx, m) }); err != nil {
			t.Fatal(err)
		}
		for i, st := range sq.Steps {
			if err := st.Run(p, m); err != nil {
				t.Fatal(err)
			}
			a := readAnchor(t, m)
			if live, want := p.LiveObjects().Objects, wantLive(t, m); live != want {
				t.Fatalf("after step %d (%s): %d live objects, want %d", i, st.Name, live, want)
			}
			switch i {
			case 1:
				if a.Cursor != 1 || fmt.Sprint(written(t, m, a.Old, 1)) != "[2]" {
					t.Fatalf("after %s: cursor %d, old chains %v; want cursor 1 and a two-segment chain 1", st.Name, a.Cursor, written(t, m, a.Old, a.Cursor))
				}
			case 2:
				if !a.Old.IsNil() || fmt.Sprint(written(t, m, a.Table, 0)) != "[1 2 1 0]" {
					t.Fatalf("after %s: old %v, chains %v; want the migration done and a two-segment chain 1", st.Name, a.Old, written(t, m, a.Table, 0))
				}
			}
		}
		kvtest.RunCrashSequence(t, harness(2*segSlots), sq)
	})

	t.Run("LinkOverflow", func(t *testing.T) {
		kvtest.RunCrashSequence(t, harness(2*segSlots), seq(hot[:segSlots],
			insert("link overflow", hot[61], 1),
			insert("update in overflow", hot[61], 2),
			remove("remove from the full segment", hot[7]),
			insert("insert into the freed slot", hot[62], 3),
			remove("remove from overflow", hot[61])))
	})
}

// TestCrashSweepWhileMigrating runs the registry's single-operation crash
// sweep on a map whose Make leaves an empty 20-segment table growing into
// 40: the 16-key prefill migrates 16 old chains, so every swept operation
// is a migration step, some move prefilled keys, and the batch case
// migrates the last chain and frees the old directory.
func TestCrashSweepWhileMigrating(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestMigrationCrashWindow samples the same transactions")
	}
	h := harness(20 * segSlots)
	mk := h.Make
	h.Make = func(p *pangolin.Pool) (kv.Map, error) {
		km, err := mk(p)
		if err != nil {
			return nil, err
		}
		m := km.(*Map)
		return m, p.Run(func(tx *pangolin.Tx) error {
			a, err := m.openAnchor(tx)
			if err != nil {
				return err
			}
			return m.grow(tx, a, 40)
		})
	}
	kvtest.RunCrashSweep(t, h)
}

// TestMigrationReadTorture grows a map from one segment through six
// doublings, one insert per transaction, while readers on a ReadView
// instance look up committed keys and scan — gated against commits the way
// internal/shard's reader gate does it. Every state of every migration is
// a state some reader may see; run under -race it also shows Lookup and
// Scan touch no unsynchronised state.
func TestMigrationReadTorture(t *testing.T) {
	total, readers := uint64(2000), 4
	if testing.Short() {
		total = 600
	}
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := NewWithBuckets(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	rom, err := Attach(p.ReadView(), m.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	val := func(k uint64) uint64 { return k<<8 | 0x5A }

	var gate sync.RWMutex
	committed := uint64(0) // keys [0, committed) are in; written under gate.Lock
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				gate.RLock()
				n := committed
				var err error
				if i%16 == 0 {
					seen := make(map[uint64]bool, n)
					err = rom.Scan(0, ^uint64(0), func(k, v uint64) bool {
						if k >= n || v != val(k) || seen[k] {
							err = errors.New("scan yielded a wrong, uncommitted or repeated pair")
						}
						seen[k] = true
						return true
					})
					if err == nil && uint64(len(seen)) != n {
						err = errors.New("scan missed committed keys")
					}
				} else if n > 0 {
					k := rng.Uint64() % n
					v, ok, lerr := rom.Lookup(k)
					if err = lerr; err == nil && (!ok || v != val(k)) {
						err = errors.New("committed key missing or wrong")
					}
					if _, ok, _ := rom.Lookup(n + 1 + rng.Uint64()%64); ok {
						err = errors.New("uncommitted key visible")
					}
				}
				gate.RUnlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for k := uint64(0); k < total; k++ {
		gate.Lock()
		err := m.Insert(k, val(k))
		committed = k + 1
		gate.Unlock()
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkModel holds m to model: every key of keys by Lookup, and the whole
// map, once per key, by Scan.
func checkModel(t *testing.T, m *Map, keys []uint64, model map[uint64]uint64, when string) {
	t.Helper()
	for _, k := range keys {
		want, present := model[k]
		if v, ok, err := m.Lookup(k); err != nil || ok != present || (ok && v != want) {
			t.Fatalf("%s: lookup %#x = (%d,%v,%v), model (%d,%v)", when, k, v, ok, err, want, present)
		}
	}
	seen := make(map[uint64]uint64)
	if err := m.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("%s: scan visited %#x twice", when, k)
		}
		seen[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(seen, model) {
		t.Fatalf("%s: scan saw %d pairs, model has %d, or values differ", when, len(seen), len(model))
	}
	if n, _ := m.Len(); n != uint64(len(model)) {
		t.Fatalf("%s: len %d, model %d", when, n, len(model))
	}
}

// TestCollisions inserts 500 keys whose hashes share their low 20 bits into
// a one-segment table: at every size the table doubles to, they share one
// segment, so they pile into one chain of overflow segments. Inserts,
// lookups, overwrites, removal of half, re-inserts and scans are checked
// against a model, and the table doubles exactly as often as Count alone
// says: collisions fill overflow segments, not the growth trigger.
func TestCollisions(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := NewWithBuckets(p, segSlots)
	if err != nil {
		t.Fatal(err)
	}
	keys := colliding(600, 0xABCDE)
	model := make(map[uint64]uint64)
	growths, table := 0, readAnchor(t, m).Table
	insert := func(k, v uint64) {
		t.Helper()
		if err := m.Insert(k, v); err != nil {
			t.Fatalf("insert %#x: %v", k, err)
		}
		model[k] = v
		if a := readAnchor(t, m); a.Table != table {
			table, growths = a.Table, growths+1
		}
	}
	for i, k := range keys[:500] {
		insert(k, uint64(i))
	}
	checkModel(t, m, keys, model, "after inserts")
	if want := doublings(1, 500); growths != want {
		t.Fatalf("%d doublings for 500 keys, want %d", growths, want)
	}
	// One chain holds everything: 8 full segments and 12 pairs in a ninth.
	a := readAnchor(t, m)
	hot := hash(keys[0]) % uint64(len(written(t, m, a.Table, 0)))
	for s, n := range written(t, m, a.Table, 0) {
		if want := map[bool]int{true: 9}[uint64(s) == hot]; n != want {
			t.Fatalf("chain %d has %d segments, want %d", s, n, want)
		}
	}
	for i, k := range keys[:500] {
		insert(k, uint64(i)+1e6)
	}
	checkModel(t, m, keys, model, "after overwrites")
	for i, k := range keys[:500] {
		if i%2 == 0 {
			if ok, err := m.Remove(k); err != nil || !ok {
				t.Fatalf("remove %#x: (%v,%v)", k, ok, err)
			}
			delete(model, k)
		}
	}
	checkModel(t, m, keys, model, "after removing half")
	if ok, err := m.Remove(keys[0]); err != nil || ok {
		t.Fatalf("second remove of %#x: (%v,%v)", keys[0], ok, err)
	}
	// 100 more fill freed slots: the chain does not lengthen.
	for i, k := range keys[500:] {
		insert(k, uint64(i))
	}
	checkModel(t, m, keys, model, "after re-inserting")
	if n := len(chain(t, m, readAnchor(t, m).Table, hot)); n != 9 {
		t.Fatalf("chain grew to %d segments with free slots in it", n)
	}
	if want := doublings(1, 500); growths != want {
		t.Fatalf("%d doublings, want %d: Count never passed 500", growths, want)
	}
}

// TestOverflow works the seams of a two-segment chain in a table that does
// not grow: a key living in the overflow segment is updated in place, not
// inserted again into a slot freed in the head segment; a new key takes
// that free slot, as the first segment with room; lookups of overflow keys
// pass over the head's empty slot; and removals backward-shift within
// whichever segment holds the key.
func TestOverflow(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := NewWithBuckets(p, 4*segSlots)
	if err != nil {
		t.Fatal(err)
	}
	keys := colliding(80, 2)
	model := make(map[uint64]uint64)
	for i, k := range keys[:70] { // 61 in the head, 9 in the overflow
		if err := m.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		model[k] = uint64(i)
	}
	dir := readAnchor(t, m).Table
	segs := chain(t, m, dir, 2)
	if len(segs) != 2 {
		t.Fatalf("chain of %d segments, want 2", len(segs))
	}
	for _, k := range keys[:5] { // free slots in the head
		if ok, err := m.Remove(k); err != nil || !ok {
			t.Fatalf("remove %#x: (%v,%v)", k, ok, err)
		}
		delete(model, k)
	}
	checkModel(t, m, keys, model, "after head removals")
	for _, k := range keys[61:70] { // overflow keys: updates, not new pairs
		if err := m.Insert(k, 7); err != nil {
			t.Fatal(err)
		}
		model[k] = 7
	}
	checkModel(t, m, keys, model, "after overflow updates")
	for i, k := range keys[70:75] { // new keys: into the head's free slots
		if err := m.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		model[k] = uint64(i)
	}
	head, err := m.p.Get(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if occupied(head) != slotMask {
		t.Fatalf("head segment bitmap %#x, want full again", occupied(head))
	}
	for _, k := range keys[61:66] {
		if ok, err := m.Remove(k); err != nil || !ok {
			t.Fatalf("remove %#x from overflow: (%v,%v)", k, ok, err)
		}
		delete(model, k)
	}
	checkModel(t, m, keys, model, "after overflow removals")
	if got := chain(t, m, dir, 2); len(got) != 2 || got[0] != segs[0] || got[1] != segs[1] {
		t.Fatalf("chain is now %v, want the same two segments %v", got, segs)
	}
	if live := p.LiveObjects().Objects; live != 4 {
		t.Fatalf("%d live objects, want anchor + directory + two segments", live)
	}
}

// TestScribbledBitmapIsCorruption scribbles a segment's occupancy bitmap.
// Unverified reads (the default policy's Lookup and Scan) must not serve
// the stale or zeroed pairs it marks occupied: the check word turns the
// scribble into typed corruption, and a scrub rebuilds the segment.
func TestScribbledBitmapIsCorruption(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := m.Insert(k, k+1); err != nil {
			t.Fatal(err)
		}
	}
	const k = 42
	tb, err := readTable(p.Get, readAnchor(t, m).Table)
	if err != nil {
		t.Fatal(err)
	}
	seg := oidAt(tb.dir, segOff(hash(k)%tb.n))
	p.InjectScribble(seg.Off, 8, 3)
	if _, _, err := m.Lookup(k); !pangolin.IsCorruption(err) {
		t.Fatalf("lookup through a scribbled bitmap: %v, want corruption", err)
	}
	if err := m.Scan(0, ^uint64(0), func(k, v uint64) bool { return true }); !pangolin.IsCorruption(err) {
		t.Fatalf("scan over a scribbled bitmap: %v, want corruption", err)
	}
	if rep, err := p.Scrub(); err != nil || rep.Fixed() == 0 || rep.Unrecovered != 0 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	if v, ok, err := m.Lookup(k); err != nil || !ok || v != k+1 {
		t.Fatalf("lookup after scrub = (%d,%v,%v)", v, ok, err)
	}
}

func TestRangeUnordered(t *testing.T) {
	kvtest.RunRange(t, harness(InitialBuckets), false)
}

// benchKey is the i-th key of the benchmarks' fills.
func benchKey(i int) uint64 { return uint64(i)*0x9E3779B1 + 5 }

// filled returns a map in an eight-zone pool holding keys [0, n), inserted
// 64 to a transaction from a fresh default table.
func filled(b *testing.B, n int) (*pangolin.Pool, *Map) {
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 8
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: geo})
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	for i := 0; i < n; i += batch {
		if err := p.Run(func(tx *pangolin.Tx) error {
			for j := i; j < min(i+batch, n); j++ {
				if err := m.InsertTx(tx, benchKey(j), uint64(j)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	return p, m
}

// BenchmarkInsertGrown is the cost of one insert, in a transaction of its
// own, into a map grown to 1,088 segments that holds 28,672 to 32,768 keys,
// far from its next growth (at 49,777): what a commit pays when it modifies
// one slot of a large table.
func BenchmarkInsertGrown(b *testing.B) {
	const grown = 32768
	p, m := filled(b, grown-4096)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 && i > 0 {
			// Back to 28,672 keys, so every timed insert meets the same
			// table.
			b.StopTimer()
			for j := i - 4096; j < i; j++ {
				if ok, err := m.Remove(benchKey(grown + j)); err != nil || !ok {
					b.Fatalf("remove: (%v, %v)", ok, err)
				}
			}
			b.StartTimer()
		}
		if err := m.Insert(benchKey(grown+i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookup is one hit, on the owner's pool and on its ReadView, in
// a map of 2,000 keys (the ledger's structure kernel size) and of 27,000
// (one fill_fresh shard's share): anchor, directory and segment reads and
// a probe.
func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{2000, 27000} {
		p, m := filled(b, n)
		view, err := Attach(p.ReadView(), m.Anchor())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			m    *Map
		}{{"owner", m}, {"view", view}} {
			b.Run(fmt.Sprintf("%s/%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					j := i % n
					if v, ok, err := c.m.Lookup(benchKey(j)); err != nil || !ok || v != uint64(j) {
						b.Fatalf("lookup %d = (%d,%v,%v)", j, v, ok, err)
					}
				}
			})
		}
		p.Close()
	}
}
