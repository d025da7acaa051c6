package hashmap

import (
	"errors"
	"math/rand"
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
// under all seven modes. From the second table on the tables are extents,
// which the undo-log modes could not open inside the transaction that
// allocated them.
func TestGrowthAllModes(t *testing.T) {
	keys := 10500
	if testing.Short() {
		keys = 2600 // the first doubling and its migration
	}
	kvtest.RunGrowth(t, harness(InitialBuckets), keys)
}

// TestGrowth pushes past the load factor so the table doubles and
// migrates, and verifies every key survives and the old table is freed.
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
	const n = InitialBuckets*2 + 600 // crosses the growth threshold; 512 more operations finish the migration
	for k := uint64(0); k < n; k++ {
		if err := m.Insert(k, k^0xA5A5); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	// Table grew.
	a, err := pangolin.GetFromPool[anchor](p, m.anchor)
	if err != nil {
		t.Fatal(err)
	}
	table, err := p.Get(a.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(len(table)); got <= tableHeaderSize+InitialBuckets*bucketSize {
		t.Fatalf("table did not grow: %d bytes", got)
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
	if live := p.LiveObjects().Objects; live != n+2 {
		t.Fatalf("%d live objects, want %d entries + anchor + one table", live, n)
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
		old, _, err = tx.Alloc(24, typeTable)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(p, old); !errors.Is(err, ErrAnchorFormat) {
		t.Fatalf("Attach on a 24-byte anchor: %v, want ErrAnchorFormat", err)
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
// opened, and bytes logged — less than one log lane (pglserve's 32 KB),
// so no transaction's log grows with the table and none can meet
// "transaction log full". Counts from Pool.Stats(), not clocks.
func TestBoundedWork(t *testing.T) {
	keys := 200000
	if testing.Short() {
		keys = 40000 // still past the old cliff, two growths later
	}
	const batch = 32
	// Per insert: the new entry, and while migrating the chains of
	// migrateStep old buckets (load factor at most 2 each, so 4 on
	// average; 10 is many deviations out for a sum over a batch). Per
	// transaction: anchor, table, old table, and a finishing growth's
	// next table.
	const maxObjs = batch*(1+10) + 4
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
	t.Logf("%d keys, %d growths: at most %d objects and %d log bytes in one transaction", keys, growths, worstObjs, worstLog)
	if worstObjs > maxObjs {
		t.Errorf("a transaction opened %d objects, bound %d", worstObjs, maxObjs)
	}
	if worstLog >= geo.LaneSize {
		t.Errorf("a transaction logged %d bytes, a lane is %d", worstLog, geo.LaneSize)
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
// that each key is visible exactly once to Lookup, LookupTx and Scan. The
// steps are driven by each kind of operation, including the removal of a
// key that still lives in the old table and an insert that lands there.
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
	if got := p.LiveObjects().Objects; got != live { // one entry more, one table less
		t.Fatalf("%d live objects after the last step, want %d", got, live)
	}
}

// TestMigrationCrashWindow crashes at every persistence point from the
// transaction that starts a growth through the one that frees the old
// table and one past it, under strict and random-eviction crash images.
func TestMigrationCrashWindow(t *testing.T) {
	// 8 buckets, 16 keys: the next insert starts the growth, and four
	// steps of two buckets finish it.
	oldKey := func(cursor uint64, present bool) uint64 {
		for k := uint64(0); k < 100; k++ {
			if (k < 16) == present && hash(k)%8 >= cursor {
				return k
			}
		}
		panic("no such key")
	}
	rm, in, up := oldKey(2, true), oldKey(4, false), oldKey(6, true)
	if up == rm {
		up = oldKey(7, true)
	}
	steps := []kvtest.CrashStep{
		{Name: "growth",
			Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(100, 1) },
			Post: func(mod map[uint64]uint64) { mod[100] = 1 }},
		{Name: "remove from old table",
			Run:  func(p *pangolin.Pool, m kv.Map) error { _, err := m.Remove(rm); return err },
			Post: func(mod map[uint64]uint64) { delete(mod, rm) }},
		{Name: "insert into old table",
			Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(in, 2) },
			Post: func(mod map[uint64]uint64) { mod[in] = 2 }},
		{Name: "update in old table",
			Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(up, 3) },
			Post: func(mod map[uint64]uint64) { mod[up] = 3 }},
		{Name: "last step frees the old table",
			Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(101, 4) },
			Post: func(mod map[uint64]uint64) { mod[101] = 4 }},
		{Name: "after the migration",
			Run:  func(p *pangolin.Pool, m kv.Map) error { return m.Insert(102, 5) },
			Post: func(mod map[uint64]uint64) { mod[102] = 5 }},
	}
	base := make(map[uint64]uint64)
	for k := uint64(0); k < 16; k++ {
		base[k] = k * 3
	}
	kvtest.RunCrashSequence(t, harness(8), kvtest.CrashSequence{
		Geometry: pangolin.DefaultGeometry(), // two zones: images are copied and scrubbed at every point
		Prefill: func(tx *pangolin.Tx, m kv.Map) error {
			for k := uint64(0); k < 16; k++ {
				if err := m.InsertTx(tx, k, k*3); err != nil {
					return err
				}
			}
			return nil
		},
		Base:  base,
		Steps: steps,
		Modes: []pangolin.CrashMode{pangolin.CrashStrict, pangolin.CrashEvictRandom},
	})
}

// TestCrashSweepWhileMigrating runs the registry's single-operation crash
// sweep on a 7-bucket table: its 16-key prefill starts a growth at the
// 15th key, so every swept operation is a migration step and the batch
// case moves the last buckets and frees the old table.
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
