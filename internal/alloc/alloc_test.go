package alloc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

func newHeap(t *testing.T) (*nvm.Device, layout.Geometry, *Allocator) {
	t.Helper()
	return newHeapGeo(t, layout.Default())
}

// oneZone is the default geometry with a single zone, so that Reserve's
// round-robin over zones cannot move a test's allocations apart.
func oneZone() layout.Geometry {
	geo := layout.Default()
	geo.NumZones = 1
	return geo
}

func newHeapGeo(t *testing.T, geo layout.Geometry) (*nvm.Device, layout.Geometry, *Allocator) {
	t.Helper()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	if err := Format(dev, geo); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dev, geo)
	if err != nil {
		t.Fatal(err)
	}
	return dev, geo, a
}

// commit reserves and immediately applies, as a committed transaction
// would.
func commit(t *testing.T, a *Allocator, size uint64) Reservation {
	t.Helper()
	r, err := a.Reserve(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(r.Op, nil); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEntryRoundTrip(t *testing.T) {
	e := Entry{State: ChunkRun, Aux: 128, Free: 5}
	e.SetBit(0)
	e.SetBit(77)
	got, err := DecodeEntry(EncodeEntry(e))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatal("entry round trip mismatch")
	}
	if !got.Bit(77) || got.Bit(78) {
		t.Fatal("bitmap bits wrong")
	}
	b := EncodeEntry(e)
	b[100] ^= 1
	if _, err := DecodeEntry(b); err == nil {
		t.Fatal("corrupt entry accepted")
	}
	var ce *CorruptError
	_, err = DecodeEntry(b)
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %v", err)
	}
}

func TestOpRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpAllocSlot, Zone: 1, Chunk: 9, Slot: 3, SlotSize: 128},
		{Kind: OpFreeSlot, Zone: 0, Chunk: 2, Slot: 0, SlotSize: 64},
		{Kind: OpAllocChunks, Zone: 1, Chunk: 4, NChunks: 3},
		{Kind: OpFreeChunks, Zone: 0, Chunk: 7, NChunks: 2},
	}
	for _, op := range ops {
		got, err := DecodeOp(EncodeOp(op))
		if err != nil {
			t.Fatal(err)
		}
		if got != op {
			t.Fatalf("op round trip: %+v != %+v", got, op)
		}
	}
	if _, err := DecodeOp(make([]byte, OpEncodedSize)); err == nil {
		t.Fatal("zero kind accepted")
	}
	if _, err := DecodeOp([]byte{1}); err == nil {
		t.Fatal("truncated op accepted")
	}
}

func TestSizeClassesMonotonic(t *testing.T) {
	cs := sizeClasses(16 * 1024)
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			t.Fatalf("classes not increasing at %d: %v", i, cs)
		}
	}
	if cs[0] != 64 {
		t.Fatalf("smallest class %d, want 64", cs[0])
	}
	if cs[len(cs)-1] > 8*1024 {
		t.Fatalf("largest class %d exceeds half chunk", cs[len(cs)-1])
	}
}

func TestSmallAllocFreeCycle(t *testing.T) {
	dev, geo, a := newHeap(t)
	_ = dev
	_ = geo
	r := commit(t, a, 100) // slot class 128 (100+16=116 → 128)
	if r.Total != 128 {
		t.Fatalf("slot size %d, want 128", r.Total)
	}
	if r.UserOff != r.Base+layout.ObjHeaderSize {
		t.Fatal("user offset must follow header")
	}
	if a.CountLive() != 1 {
		t.Fatalf("live = %d, want 1", a.CountLive())
	}
	op, err := a.StageFree(r.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(op, nil); err != nil {
		t.Fatal(err)
	}
	if a.CountLive() != 0 {
		t.Fatalf("live = %d after free", a.CountLive())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctAddresses(t *testing.T) {
	_, _, a := newHeap(t)
	seen := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		r := commit(t, a, 48) // 64B slots
		if seen[r.Base] {
			t.Fatalf("address %#x handed out twice", r.Base)
		}
		seen[r.Base] = true
	}
	if a.CountLive() != 200 {
		t.Fatalf("live = %d", a.CountLive())
	}
}

func TestLargeAllocUsesChunkExtent(t *testing.T) {
	_, geo, a := newHeap(t)
	size := geo.ChunkSize + 100 // needs 2 chunks
	r := commit(t, a, size)
	if r.Op.Kind != OpAllocChunks || r.Op.NChunks != 2 {
		t.Fatalf("unexpected op %+v", r.Op)
	}
	if r.Total != 2*geo.ChunkSize {
		t.Fatalf("extent size %d", r.Total)
	}
	// Free it.
	op, err := a.StageFree(r.Base)
	if err != nil {
		t.Fatal(err)
	}
	if op.Kind != OpFreeChunks || op.NChunks != 2 {
		t.Fatalf("stage free op %+v", op)
	}
	if err := a.Apply(op, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseAbandonsReservation(t *testing.T) {
	_, _, a := newHeap(t)
	r, err := a.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	a.Release(r)
	if a.CountLive() != 0 {
		t.Fatal("released reservation counted live")
	}
	// The slot is reusable: within one round of zones some allocation
	// lands back on the released address.
	geo := layout.Default()
	reused := false
	for i := uint64(0); i < geo.NumZones && !reused; i++ {
		r2, err := a.Reserve(100)
		if err != nil {
			t.Fatal(err)
		}
		reused = r2.Base == r.Base
		a.Release(r2)
	}
	if !reused {
		t.Fatalf("released slot %#x never reused", r.Base)
	}
}

func TestReservationsAreDisjoint(t *testing.T) {
	_, _, a := newHeap(t)
	r1, err := a.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Base == r2.Base {
		t.Fatal("two in-flight reservations share an address")
	}
}

func TestOutOfSpace(t *testing.T) {
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	if err := Format(dev, geo); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dev, geo)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust with large extents.
	n := 0
	for {
		r, err := a.Reserve(geo.ChunkSize * 2)
		if errors.Is(err, ErrOutOfSpace) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Apply(r.Op, nil); err != nil {
			t.Fatal(err)
		}
		n++
		if n > 10000 {
			t.Fatal("never ran out of space")
		}
	}
	if n == 0 {
		t.Fatal("no allocations succeeded")
	}
	// Oversized single allocation fails immediately.
	if _, err := a.Reserve(a.MaxAlloc() + 1); !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("oversized alloc: %v", err)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	_, _, a := newHeap(t)
	r := commit(t, a, 100)
	op, err := a.StageFree(r.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(op, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.StageFree(r.Base); err == nil {
		t.Fatal("double free staged without error")
	}
}

func TestFreeBogusAddressRejected(t *testing.T) {
	_, geo, a := newHeap(t)
	if _, err := a.StageFree(0); err == nil {
		t.Fatal("free of pool header accepted")
	}
	if _, err := a.StageFree(geo.RowsBase(0)); err == nil {
		t.Fatal("free inside CM area accepted")
	}
	r := commit(t, a, 100)
	if _, err := a.StageFree(r.Base + 1); err == nil {
		t.Fatal("free of non-slot-boundary accepted")
	}
}

func TestReopenRebuildsState(t *testing.T) {
	dev, geo, a := newHeap(t)
	var kept []Reservation
	for i := 0; i < 50; i++ {
		kept = append(kept, commit(t, a, uint64(40+i*8)))
	}
	// Free every other one.
	for i := 0; i < len(kept); i += 2 {
		op, err := a.StageFree(kept[i].Base)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Apply(op, nil); err != nil {
			t.Fatal(err)
		}
	}
	liveBefore := a.CountLive()
	bytesBefore := a.LiveBytes()

	a2, err := Open(dev, geo)
	if err != nil {
		t.Fatal(err)
	}
	if a2.CountLive() != liveBefore || a2.LiveBytes() != bytesBefore {
		t.Fatalf("reopen: live %d/%d bytes %d/%d",
			a2.CountLive(), liveBefore, a2.LiveBytes(), bytesBefore)
	}
	// The reopened allocator can still allocate and never collides with
	// live objects.
	liveSet := make(map[uint64]bool)
	a2.Objects(func(o ObjectInfo) bool { liveSet[o.Base] = true; return true })
	for i := 0; i < 20; i++ {
		r := commit(t, a2, 64)
		if liveSet[r.Base] {
			t.Fatalf("reopened allocator reissued live address %#x", r.Base)
		}
	}
	if err := a2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenDetectsCorruptCM(t *testing.T) {
	dev, geo, a := newHeap(t)
	commit(t, a, 100)
	// Scribble the CM entry of an allocated chunk.
	dev.Scribble(geo.CMEntryOff(0, geo.CMChunks()), 16, rand.New(rand.NewSource(3)))
	_, err := Open(dev, geo)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %v", err)
	}
	if ce.Zone != 0 || ce.Chunk != geo.CMChunks() {
		t.Fatalf("corrupt entry misidentified: %+v", ce)
	}
}

func TestApplyIdempotent(t *testing.T) {
	dev, geo, a := newHeap(t)
	r, err := a.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	// Apply twice (simulates replay after a crash mid-apply).
	if err := ApplyToDevice(dev, geo, r.Op, nil); err != nil {
		t.Fatal(err)
	}
	if err := ApplyToDevice(dev, geo, r.Op, nil); err != nil {
		t.Fatal(err)
	}
	a2, err := Open(dev, geo)
	if err != nil {
		t.Fatal(err)
	}
	if a2.CountLive() != 1 {
		t.Fatalf("live = %d after double apply", a2.CountLive())
	}
	// Free twice likewise.
	op, err := a2.StageFree(r.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyToDevice(dev, geo, op, nil); err != nil {
		t.Fatal(err)
	}
	if err := ApplyToDevice(dev, geo, op, nil); err != nil {
		t.Fatal(err)
	}
	a3, err := Open(dev, geo)
	if err != nil {
		t.Fatal(err)
	}
	if a3.CountLive() != 0 {
		t.Fatalf("live = %d after double free apply", a3.CountLive())
	}
}

func TestApplyReportsRanges(t *testing.T) {
	dev, geo, a := newHeap(t)
	_ = dev
	r, err := a.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	err = a.Apply(r.Op, func(off uint64, old, new_ []byte) {
		calls++
		if off != geo.CMEntryOff(0, r.Op.Chunk) {
			t.Errorf("range at %#x, want CM entry offset", off)
		}
		if len(old) != layout.CMEntrySize || len(new_) != layout.CMEntrySize {
			t.Errorf("range sizes %d/%d", len(old), len(new_))
		}
		eOld, err := DecodeEntry(old)
		if err != nil {
			t.Errorf("old image invalid: %v", err)
		}
		if eOld.State != ChunkFree {
			t.Errorf("old state %d, want free", eOld.State)
		}
		eNew, err := DecodeEntry(new_)
		if err != nil {
			t.Errorf("new image invalid: %v", err)
		}
		if eNew.State != ChunkRun || !eNew.Bit(r.Op.Slot) {
			t.Errorf("new entry %+v does not show allocation", eNew)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("onRange called %d times", calls)
	}
}

func TestSlotSizeOf(t *testing.T) {
	_, geo, a := newHeap(t)
	small := commit(t, a, 100)
	if ss, err := a.SlotSizeOf(small.Base); err != nil || ss != 128 {
		t.Fatalf("SlotSizeOf small = %d, %v", ss, err)
	}
	big := commit(t, a, geo.ChunkSize)
	if ss, err := a.SlotSizeOf(big.Base); err != nil || ss != 2*geo.ChunkSize {
		t.Fatalf("SlotSizeOf big = %d, %v", ss, err)
	}
}

// TestConcurrentAllocFree: eight workers allocate and free concurrently and
// no address is ever live twice. It used to fail about one run in ten under
// -race for two reasons, both fixed: the allocator handed out a chunk whose
// run had collapsed while another worker still held a reservation in it
// (TestRunCollapseKeepsReservedChunk), and this test forgot a freed address
// only after applying the free, so a worker that legitimately re-reserved
// the slot in between tripped the duplicate check. With both fixes it
// passed 500 of 500 runs under -race; CI runs it 20 times as a gate.
func TestConcurrentAllocFree(t *testing.T) {
	_, _, a := newHeap(t)
	const workers = 8
	var mu sync.Mutex
	addrs := make(map[uint64]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []uint64
			for i := 0; i < 100; i++ {
				if len(mine) > 0 && rng.Intn(3) == 0 {
					base := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					op, err := a.StageFree(base)
					if err != nil {
						panic(err)
					}
					// Forget the address before the free applies: once it
					// has, another worker may own the slot.
					mu.Lock()
					delete(addrs, base)
					mu.Unlock()
					if err := a.Apply(op, nil); err != nil {
						panic(err)
					}
					continue
				}
				size := uint64(rng.Intn(400) + 30)
				r, err := a.Reserve(size)
				if err != nil {
					panic(err)
				}
				if err := a.Apply(r.Op, nil); err != nil {
					panic(err)
				}
				mu.Lock()
				if prev, dup := addrs[r.Base]; dup {
					panic(fmt.Sprintf("address %#x double-allocated (workers %d and %d)", r.Base, prev, w))
				}
				addrs[r.Base] = w
				mu.Unlock()
				mine = append(mine, r.Base)
			}
		}(w)
	}
	wg.Wait()
	if a.CountLive() != len(addrs) {
		t.Fatalf("live %d != tracked %d", a.CountLive(), len(addrs))
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCollapseKeepsReservedChunk: freeing a run's last live slot collapses
// the chunk to free on media, but a second transaction's reservation in
// that run is still outstanding, so the chunk must not be carved again.
// Before the fix the third reservation below found the chunk "free", reset
// its reservations and handed out slot 0 a second time.
func TestRunCollapseKeepsReservedChunk(t *testing.T) {
	_, _, a := newHeapGeo(t, oneZone())
	live := commit(t, a, 100) // first slot of a fresh 128-byte run
	held, err := a.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	if held.Op.Chunk != live.Op.Chunk || held.Op.Zone != live.Op.Zone {
		t.Fatalf("second reservation left the run: %+v vs %+v", held.Op, live.Op)
	}
	// A second "transaction" frees the run's only live slot.
	op, err := a.StageFree(live.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(op, nil); err != nil {
		t.Fatal(err)
	}
	if ss, err := a.SlotSizeOf(held.Base); err != nil || ss != 128 {
		t.Fatalf("reserved slot in the collapsed run: SlotSizeOf = %d, %v", ss, err)
	}
	// Every further reservation of the class, however many, avoids held's
	// slot; so does an extent.
	seen := map[uint64]bool{held.Base: true}
	for i := 0; i < 300; i++ {
		r, err := a.Reserve(100)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.Base] {
			t.Fatalf("address %#x reserved twice", r.Base)
		}
		seen[r.Base] = true
	}
	big, err := a.Reserve(3 * a.geo.ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	if c := held.Op.Chunk; big.Op.Zone == held.Op.Zone && big.Op.Chunk <= c && c < big.Op.Chunk+big.Op.NChunks {
		t.Fatalf("extent %+v covers the chunk holding a reservation", big.Op)
	}
	a.Release(big)
	// The held reservation commits into the chunk, re-creating the run.
	if err := a.Apply(held.Op, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if ss, err := a.SlotSizeOf(held.Base); err != nil || ss != 128 {
		t.Fatalf("SlotSizeOf after commit = %d, %v", ss, err)
	}
}

// TestRunCollapseThenRelease: the reservation outliving its run is abandoned
// instead; the chunk then really is free again.
func TestRunCollapseThenRelease(t *testing.T) {
	_, _, a := newHeapGeo(t, oneZone())
	live := commit(t, a, 100)
	held, err := a.Reserve(100)
	if err != nil {
		t.Fatal(err)
	}
	op, err := a.StageFree(live.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(op, nil); err != nil {
		t.Fatal(err)
	}
	a.Release(held)
	if _, err := a.SlotSizeOf(held.Base); err == nil {
		t.Fatal("released slot of a collapsed run still reads as allocated")
	}
	if a.CountLive() != 0 {
		t.Fatalf("live = %d", a.CountLive())
	}
	// The whole zone is allocatable again, this chunk included.
	whole := a.MaxAlloc()
	r, err := a.Reserve(whole)
	if err != nil {
		t.Fatalf("chunk not returned to the free pool: %v", err)
	}
	a.Release(r)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotSizeOfConcurrent hammers the lock-free SlotSizeOf from readers
// while one writer drives a run chunk and an extent through every
// transition: free, reserved (pending run / pending span), released,
// reserved again, committed, freed. Each address has exactly two legal
// answers at any moment — its capacity, or a "not allocated" error — and a
// torn read of the chunk's state would show as anything else. Run with
// -race -count=10.
func TestSlotSizeOfConcurrent(t *testing.T) {
	_, geo, a := newHeapGeo(t, oneZone())
	const slotUser, slotCap = 100, 128
	extUser, extCap := 2*geo.ChunkSize-100, 2*geo.ChunkSize
	// reserve takes the slot first and the extent while the slot's chunk
	// is claimed, so both land on the same addresses in every cycle (the
	// writer is the allocator's only user).
	reserve := func() (slot, ext Reservation) {
		slot, err := a.Reserve(slotUser)
		if err != nil {
			t.Fatal(err)
		}
		if ext, err = a.Reserve(extUser); err != nil {
			t.Fatal(err)
		}
		return slot, ext
	}
	s0, e0 := reserve()
	a.Release(e0)
	a.Release(s0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, err := a.SlotSizeOf(s0.Base); err == nil && got != slotCap {
					t.Errorf("slot answered %d, want %d or an error", got, slotCap)
					return
				}
				if got, err := a.SlotSizeOf(e0.Base); err == nil && got != extCap {
					t.Errorf("extent answered %d, want %d or an error", got, extCap)
					return
				}
				// The extent's second chunk is never an object base.
				if got, err := a.SlotSizeOf(e0.Base + geo.ChunkSize); err == nil {
					t.Errorf("extent continuation answered %d", got)
					return
				}
			}
		}()
	}
	free := func(base uint64) {
		op, err := a.StageFree(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Apply(op, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		s, e := reserve()
		a.Release(e)
		a.Release(s)
		s, e = reserve()
		if s.Base != s0.Base || e.Base != e0.Base {
			t.Fatalf("cycle %d moved: slot %#x (want %#x), extent %#x (want %#x)", i, s.Base, s0.Base, e.Base, e0.Base)
		}
		if err := a.Apply(s.Op, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.Apply(e.Op, nil); err != nil {
			t.Fatal(err)
		}
		if got, err := a.SlotSizeOf(s.Base); err != nil || got != slotCap {
			t.Fatalf("committed slot = %d, %v", got, err)
		}
		if got, err := a.SlotSizeOf(e.Base); err != nil || got != extCap {
			t.Fatalf("committed extent = %d, %v", got, err)
		}
		free(e.Base)
		free(s.Base)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: random alloc/free/release sequences keep the allocator
// consistent: no double allocation, reopen sees the same live set, Validate
// passes.
func TestRandomOpsInvariant(t *testing.T) {
	geo := layout.Default()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
		if err := Format(dev, geo); err != nil {
			return false
		}
		a, err := Open(dev, geo)
		if err != nil {
			return false
		}
		live := make(map[uint64]uint64) // base → capacity
		for i := 0; i < 120; i++ {
			switch r := rng.Intn(10); {
			case r < 6: // alloc
				size := uint64(rng.Intn(3000) + 1)
				res, err := a.Reserve(size)
				if errors.Is(err, ErrOutOfSpace) {
					continue
				}
				if err != nil {
					return false
				}
				if rng.Intn(5) == 0 { // abort path
					a.Release(res)
					continue
				}
				if err := a.Apply(res.Op, nil); err != nil {
					return false
				}
				if _, dup := live[res.Base]; dup {
					return false
				}
				live[res.Base] = res.Total
			case r < 9 && len(live) > 0: // free
				var base uint64
				for b := range live {
					base = b
					break
				}
				op, err := a.StageFree(base)
				if err != nil {
					return false
				}
				if err := a.Apply(op, nil); err != nil {
					return false
				}
				delete(live, base)
			}
		}
		if a.CountLive() != len(live) {
			return false
		}
		if err := a.Validate(); err != nil {
			return false
		}
		a2, err := Open(dev, geo)
		if err != nil {
			return false
		}
		got := make(map[uint64]uint64)
		a2.Objects(func(o ObjectInfo) bool { got[o.Base] = o.Capacity; return true })
		if len(got) != len(live) {
			return false
		}
		for b, c := range live {
			if got[b] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
