package hashmap

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/kvtest"
)

func TestEntrySizeMatchesPaper(t *testing.T) {
	// Table 3: hashmap entry size 40 B.
	if s := unsafe.Sizeof(entry{}); s != 40 {
		t.Fatalf("entry size %d, want 40", s)
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

// TestConformanceWhileMigrating reruns the suite on a 4-bucket table, which
// doubles five or six times inside each case: every operation of every
// case runs next to, or as part of, a migration.
func TestConformanceWhileMigrating(t *testing.T) {
	kvtest.RunAll(t, harness(4))
}

// TestGrowthAllModes takes the default table through three doublings
// (2,049, 4,097 and 8,193 entries; the last migration ends by 10,241)
// under all seven modes. Each doubling allocates the new table's segments
// on first touch, inside the 16-insert transactions that also write their
// buckets — objects the undo-log modes must open in the transaction that
// allocated them — frees an old segment every 63 buckets and the old
// directory at the end; the short run crosses all three in the first.
func TestGrowthAllModes(t *testing.T) {
	keys := 10500
	if testing.Short() {
		keys = 2600 // the first doubling and its migration
	}
	kvtest.RunGrowth(t, harness(InitialBuckets), keys)
}

// written reports, slot by slot, which segments of a directory have been
// allocated.
func written(t *testing.T, m *Map, dirOID pangolin.OID) (segs []bool) {
	t.Helper()
	dir, err := m.p.Get(dirOID)
	if err != nil {
		t.Fatal(err)
	}
	for s := uint64(0); segOff(s) < uint64(len(dir)); s++ {
		segs = append(segs, !oidAt(dir, segOff(s)).IsNil())
	}
	return segs
}

// wantLive is the number of live objects the map should own: the anchor,
// every entry, each table's directory, every segment the current directory
// names and every old segment the cursor has not left yet. A segment or
// directory a migration failed to free is live but not counted here.
func wantLive(t *testing.T, m *Map) int {
	t.Helper()
	a := readAnchor(t, m)
	live := 1 + int(a.Count) + 1
	count := func(segs []bool) {
		for _, w := range segs {
			if w {
				live++
			}
		}
	}
	count(written(t, m, a.Table))
	if !a.Old.IsNil() {
		live++
		count(written(t, m, a.Old)[a.Cursor/segBuckets:])
	}
	return live
}

// TestGrowth pushes past the load factor so the table doubles and
// migrates, and verifies every key survives and every old segment and the
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
	const n = InitialBuckets*2 + 600 // crosses the growth threshold; 512 more operations finish the migration
	for k := uint64(0); k < n; k++ {
		if err := m.Insert(k, k^0xA5A5); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		// Exact at every step: across the growth, each old segment's free
		// as the cursor leaves it, and the old directory's.
		if live, want := p.LiveObjects().Objects, wantLive(t, m); live != want {
			t.Fatalf("after insert %d: %d live objects, want %d (anchor %+v)", k, live, want, readAnchor(t, m))
		}
	}
	// Table grew.
	a := readAnchor(t, m)
	dir, err := p.Get(a.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got := nBuckets(dir); got != 2*InitialBuckets {
		t.Fatalf("table has %d buckets, want %d", got, 2*InitialBuckets)
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
	// 599 operations past the growth moved all 1,024 old buckets.
	if !a.Old.IsNil() || a.Cursor != 0 {
		t.Fatalf("migration still running: old %v cursor %d", a.Old, a.Cursor)
	}
	// 2,648 keys over 2,048 buckets leave no 63-bucket segment untouched.
	if live, want := p.LiveObjects().Objects, n+2+(2*InitialBuckets+segBuckets-1)/segBuckets; live != want {
		t.Fatalf("%d live objects, want %d: entries + anchor + directory + every segment", live, want)
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
	// The pre-incremental-growth anchor: {Table OID, Count}, 24 bytes.
	var old pangolin.OID
	if err := p.Run(func(tx *pangolin.Tx) error {
		old, _, err = tx.Alloc(24, typeAnchor)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(p, old); !errors.Is(err, ErrAnchorFormat) {
		t.Fatalf("Attach on a 24-byte anchor: %v, want ErrAnchorFormat", err)
	}
	// The pre-segment map: today's anchor over one bucket-array object,
	// {bucket count, reserved word, one OID per bucket}, which carried the
	// anchor's type code.
	if err := p.Run(func(tx *pangolin.Tx) error {
		var a *anchor
		if old, a, err = pangolin.Alloc[anchor](tx, typeAnchor); err != nil {
			return err
		}
		var table []byte
		a.Table, table, err = tx.Alloc(16+8*16, typeAnchor)
		table[0] = 8
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(p, old); !errors.Is(err, ErrAnchorFormat) {
		t.Fatalf("Attach on a bucket-array table: %v, want ErrAnchorFormat", err)
	}
}

// readAnchor copies the committed anchor.
func readAnchor(t *testing.T, m *Map) anchor {
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
// opened, bytes logged — less than one log lane (pglserve's 32 KB), so no
// transaction's log grows with the table and none can meet "transaction log
// full" — and bytes micro-buffered, which as one bucket-array object
// reached 3 MB here. Counts from Pool.Stats(), not clocks.
func TestBoundedWork(t *testing.T) {
	keys := 200000
	if testing.Short() {
		keys = 40000 // still past the old cliff, two growths later
	}
	const batch = 32
	// Per insert: the new entry and its bucket's segment, and while
	// migrating the chains of migrateStep old buckets (load factor at most
	// 2 each, so 4 on average; 10 is many deviations out for a sum over a
	// batch). Per transaction: the anchor, both directories and a finishing
	// growth's next one; the segments the batch's 64 consecutive old
	// buckets split into (three around i, three around i+oldN); two old
	// segments freed.
	const maxObjs = batch*(2+10) + 4 + 6 + 2
	// The largest object opened is the directory (51 KB for the last
	// table); the bucket array it replaces was 3.1 MB.
	const maxMBuf = 256 << 10
	geo := pangolin.DefaultGeometry() // 32 KB lanes, as pglserve
	geo.ChunkSize, geo.ChunksPerRow, geo.NumZones = 64<<10, 8, 4
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
	if worstLog >= geo.LaneSize {
		t.Errorf("a transaction logged %d bytes, a lane is %d", worstLog, geo.LaneSize)
	}
	if hw := st.MBufHighWater.Load(); hw > maxMBuf {
		t.Errorf("micro-buffers reached %d bytes, bound %d", hw, maxMBuf)
	}
	if wantGrowths := map[bool]int{false: 7, true: 5}[testing.Short()]; growths != wantGrowths {
		t.Errorf("%d growths, want %d", growths, wantGrowths)
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

// TestMidMigrationSemantics walks a migration one step at a time — 16 old
// buckets, so cursors 0, 2, …, 14 and done — and at every position checks
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
	m, err := NewWithBuckets(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64]uint64)
	for k := uint64(0); k <= 32; k++ { // the 33rd insert starts the growth
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
			for k := uint64(0); k < 200; k++ {
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
		for k := uint64(0); k < 200; k++ {
			if _, ok := model[k]; ok == present && hash(k)%16 >= cursor {
				return k
			}
		}
		t.Fatal("no such key")
		return 0
	}
	check(0, true)

	k := inOld(2, true) // the remove first steps to cursor 2, then unlinks from the old table
	if ok, err := m.Remove(k); err != nil || !ok {
		t.Fatalf("remove of old-table key %d: (%v,%v)", k, ok, err)
	}
	delete(model, k)
	check(2, true)

	k = inOld(4, false) // a new key whose home is still the old table
	if err := m.Insert(k, 7); err != nil {
		t.Fatal(err)
	}
	model[k] = 7
	check(4, true)

	k = inOld(6, true) // update in place, in the old table
	if err := m.Insert(k, 8); err != nil {
		t.Fatal(err)
	}
	model[k] = 8
	check(6, true)

	if ok, err := m.Remove(199); err != nil || ok { // a miss still migrates
		t.Fatalf("remove of a missing key: (%v,%v)", ok, err)
	}
	check(8, true)

	// Two steps in one transaction, which then aborts: nothing moves.
	_ = p.Run(func(tx *pangolin.Tx) error {
		for _, k := range []uint64{150, 151} {
			if err := m.InsertTx(tx, k, 1); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok, _ := m.LookupTx(tx, 150); !ok || v != 1 {
			t.Fatal("own uncommitted insert not visible")
		}
		return errors.New("abort")
	})
	check(8, true)

	for cursor := uint64(10); cursor <= 14; cursor += 2 {
		k := 160 + cursor
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		model[k] = k
		check(cursor, true)
	}
	live := p.LiveObjects().Objects
	if err := m.Insert(190, 190); err != nil { // moves the last buckets, frees the old table
		t.Fatal(err)
	}
	model[190] = 190
	check(0, false)
	// One entry more; the old directory and its one segment less. The new
	// table's 32 buckets share a segment, allocated by the first step.
	if got, want := p.LiveObjects().Objects, live+1-2; got != want || got != len(model)+3 {
		t.Fatalf("%d live objects after the last step, want %d = %d entries + anchor + directory + segment", got, want, len(model))
	}
}

// TestMigrationCrashWindow crashes at every persistence point of a
// migration's transactions, under strict and random-eviction crash images.
// OneSegment sweeps a whole migration of an 8-bucket table, from the
// transaction that starts the growth through the one that frees the old
// table and one past it. SegmentBoundary sweeps the end of a 66-bucket
// table's migration, where the cursor leaves the first old segment (63
// buckets) and the last step frees the second one and the old directory.
func TestMigrationCrashWindow(t *testing.T) {
	// oldKey picks a key, among the first nkeys (present) or past them
	// (absent), whose chain is still in the old table of n buckets once the
	// cursor stands at cursor.
	oldKey := func(n, nkeys, cursor uint64, present bool, not ...uint64) uint64 {
	next:
		for k := uint64(0); k < nkeys+100; k++ {
			for _, x := range not {
				if k == x {
					continue next
				}
			}
			if (k < nkeys) == present && hash(k)%n >= cursor {
				return k
			}
		}
		panic("no such key")
	}
	// steps builds the window's operations: first, which leaves the cursor
	// at cursor, then a remove from, an insert into and an update in the
	// old table, each a migration step, then inserts of the keys in more.
	steps := func(n, nkeys, cursor uint64, first kvtest.CrashStep, more ...uint64) []kvtest.CrashStep {
		rm := oldKey(n, nkeys, cursor+2, true)
		in := oldKey(n, nkeys, cursor+4, false)
		up := oldKey(n, nkeys, min(cursor+6, n-1), true, rm)
		out := []kvtest.CrashStep{
			first,
			{Name: "remove from old table",
				Run:  func(p *pangolin.Pool, m kv.Map) error { _, err := m.Remove(rm); return err },
				Post: func(mod map[uint64]uint64) { delete(mod, rm) }},
			{Name: "insert into old table",
				Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(in, 2) },
				Post: func(mod map[uint64]uint64) { mod[in] = 2 }},
			{Name: "update in old table",
				Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(up, 3) },
				Post: func(mod map[uint64]uint64) { mod[up] = 3 }},
		}
		for _, k := range more {
			out = append(out, kvtest.CrashStep{Name: "insert",
				Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(k, 4) },
				Post: func(mod map[uint64]uint64) { mod[k] = 4 }})
		}
		return out
	}
	// prefill inserts keys [0, nkeys) and then updates the first warm of
	// them, each update one migration step once a growth is running.
	prefill := func(nkeys, warm uint64) (func(tx *pangolin.Tx, m kv.Map) error, map[uint64]uint64) {
		base := make(map[uint64]uint64)
		for k := uint64(0); k < nkeys; k++ {
			base[k] = k * 3
		}
		for k := uint64(0); k < warm; k++ {
			base[k] = k*3 + 1
		}
		return func(tx *pangolin.Tx, m kv.Map) error {
			for k := uint64(0); k < nkeys+warm; k++ {
				if err := m.InsertTx(tx, k%nkeys, base[k%nkeys]); err != nil {
					return err
				}
			}
			return nil
		}, base
	}

	t.Run("OneSegment", func(t *testing.T) {
		// 8 buckets, 16 keys: the next insert starts the growth, and four
		// steps of two buckets finish it — the last of them the first of
		// the two trailing inserts. The first step allocates the new
		// table's only segment, the last frees the old table's and its
		// directory.
		fill, base := prefill(16, 0)
		kvtest.RunCrashSequence(t, harness(8), kvtest.CrashSequence{
			Geometry: pangolin.DefaultGeometry(), // two zones: images are copied and scrubbed at every point
			Prefill:  fill,
			Base:     base,
			Steps: steps(8, 16, 0, kvtest.CrashStep{Name: "growth",
				Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(1000, 1) },
				Post: func(mod map[uint64]uint64) { mod[1000] = 1 }}, 1001, 1002),
			Modes: []pangolin.CrashMode{pangolin.CrashStrict, pangolin.CrashEvictRandom},
		})
	})

	t.Run("SegmentBoundary", func(t *testing.T) {
		// 66 buckets in two segments, 63 + 3. The prefill's 133rd insert
		// starts the growth and its 29 updates take the cursor to 58; the
		// steps then stand at 60, 62, 64 — old bucket 62 was the first
		// segment's last, so that step frees it — and 66, which frees the
		// second segment and the old directory; one insert follows the
		// migration. New buckets 126 to 131 (old 60 to 65, plus 66) are the
		// first writes to the new table's third segment.
		const n, nkeys, warm = 66, 2*66 + 1, 29
		fill, base := prefill(nkeys, warm)
		seq := kvtest.CrashSequence{
			Geometry: pangolin.DefaultGeometry(),
			Prefill:  fill,
			Base:     base,
			Steps: steps(n, nkeys, 60, kvtest.CrashStep{Name: "update",
				Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(0, 9) },
				Post: func(mod map[uint64]uint64) { mod[0] = 9 }}, 1001),
			Modes: []pangolin.CrashMode{pangolin.CrashStrict, pangolin.CrashEvictRandom},
		}

		// A run without crashes first, to show the sweep crosses what the
		// comment above says it does.
		p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: seq.Geometry})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		m, err := NewWithBuckets(p, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(func(tx *pangolin.Tx) error { return fill(tx, m) }); err != nil {
			t.Fatal(err)
		}
		// wantLive turns the anchor into the exact object count: old
		// segments count from the cursor's on, so one the cursor left
		// without freeing, or an old directory outliving the migration,
		// breaks the equality.
		if a := readAnchor(t, m); a.Cursor != 58 || !slices.Equal(written(t, m, a.Table), []bool{true, true, false}) {
			t.Fatalf("after the prefill: cursor %d, new segments %v; want 58 and the third segment not yet written", a.Cursor, written(t, m, a.Table))
		}
		for i, st := range seq.Steps {
			if err := st.Run(p, m); err != nil {
				t.Fatal(err)
			}
			a := readAnchor(t, m)
			if live, want := p.LiveObjects().Objects, wantLive(t, m); live != want {
				t.Fatalf("after step %d (%s): %d live objects, want %d", i, st.Name, live, want)
			}
			if wantCursor := []uint64{60, 62, 64, 0, 0}[i]; a.Cursor != wantCursor || a.Old.IsNil() != (i >= 3) {
				t.Fatalf("after step %d (%s): old %v cursor %d, want cursor %d", i, st.Name, a.Old, a.Cursor, wantCursor)
			}
			if i == 2 && !written(t, m, a.Table)[2] {
				t.Fatal("the new table's third segment is still unwritten at cursor 64")
			}
		}
		kvtest.RunCrashSequence(t, harness(n), seq)
	})
}

// TestCrashSweepWhileMigrating runs the registry's single-operation crash
// sweep on a 7-bucket table: its 16-key prefill starts a growth at the
// 15th key, so every swept operation is a migration step and the batch
// case moves the last buckets and frees the old segment and directory.
func TestCrashSweepWhileMigrating(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: TestMigrationCrashWindow samples the same transactions")
	}
	kvtest.RunCrashSweep(t, harness(7))
}

// TestMigrationReadTorture grows a map from 4 buckets through eight
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

// TestCollisions forces all keys into one bucket path by construction:
// keys that differ only above the bucket-index bits share chains.
func TestCollisions(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	// Just hammer a small keyspace with updates and removals; chain
	// handling shows up regardless of hash spread.
	for round := 0; round < 3; round++ {
		for k := uint64(0); k < 64; k++ {
			if err := m.Insert(k, uint64(round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := uint64(0); k < 64; k++ {
		v, ok, _ := m.Lookup(k)
		if !ok || v != 2 {
			t.Fatalf("key %d = (%d,%v)", k, v, ok)
		}
	}
	for k := uint64(0); k < 64; k += 2 {
		if ok, err := m.Remove(k); err != nil || !ok {
			t.Fatalf("remove %d: %v %v", k, ok, err)
		}
	}
	for k := uint64(0); k < 64; k++ {
		_, ok, _ := m.Lookup(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("key %d present=%v", k, ok)
		}
	}
}

func TestRangeUnordered(t *testing.T) {
	kvtest.RunRange(t, harness(InitialBuckets), false)
}

// BenchmarkInsertGrown is the cost of one insert, in a transaction of its
// own, into a map grown to 16,384 buckets (261 segments) that holds 28,672
// to 32,768 keys, one short of its next growth: what a commit pays when it
// modifies one bucket of a large table.
func BenchmarkInsertGrown(b *testing.B) {
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 8
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: geo})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	m, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	const grown, batch = 32768, 64
	key := func(i int) uint64 { return uint64(i)*0x9E3779B1 + 5 }
	fill := func(from, to int) {
		for i := from; i < to; i += batch {
			if err := p.Run(func(tx *pangolin.Tx) error {
				for j := i; j < min(i+batch, to); j++ {
					if err := m.InsertTx(tx, key(j), uint64(j)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	fill(0, grown-4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 && i > 0 {
			// Back to 28,672 keys, so every timed insert meets the same
			// 16,384-bucket table and none starts its growth.
			b.StopTimer()
			for j := i - 4096; j < i; j++ {
				if ok, err := m.Remove(key(grown + j)); err != nil || !ok {
					b.Fatalf("remove: (%v, %v)", ok, err)
				}
			}
			b.StartTimer()
		}
		if err := m.Insert(key(grown+i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
