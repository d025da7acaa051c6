package pangolin

import (
	"sync"
	"testing"
)

// readViewObjs allocates n listNodes, vals[i] in node i, in small
// transactions.
func readViewObjs(t *testing.T, p *Pool, n int) []OID {
	t.Helper()
	oids := make([]OID, 0, n)
	for len(oids) < n {
		err := p.Run(func(tx *Tx) error {
			for i := 0; i < 200 && len(oids) < n; i++ {
				oid, node, err := Alloc[listNode](tx, 1)
				if err != nil {
					return err
				}
				node.Val = uint64(len(oids))
				oids = append(oids, oid)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return oids
}

// TestReadViewVerifiesOncePerModification pins the verified-read table's
// exactness through the counter that moves only when a checksum is
// computed: a commit to one object makes exactly that object's next view
// read verify again — never another's, however many objects the pool holds
// (the hashed modification clock this replaced re-verified every object
// sharing one of its 8,192 slots with the written one) — and never leaves
// the written object's verification standing.
func TestReadViewVerifiesOncePerModification(t *testing.T) {
	p := newPool(t, ModePangolinMLPC)
	const n = 20_000 // well past the old clock's 8,192 slots
	oids := readViewObjs(t, p, n)
	view := p.ReadView()
	user := SizeOf[listNode]()
	readAll := func(v *Pool) uint64 {
		t.Helper()
		before := p.Stats().VerifiedBytes.Load()
		for i, oid := range oids {
			node, err := GetFromPool[listNode](v, oid)
			if err != nil {
				t.Fatal(err)
			}
			if node.Val%n != uint64(i) {
				t.Fatalf("object %d reads %d", i, node.Val)
			}
		}
		return p.Stats().VerifiedBytes.Load() - before
	}
	if got := readAll(view); got != n*user {
		t.Fatalf("first pass verified %d B, want %d", got, n*user)
	}
	if got := readAll(view); got != 0 {
		t.Fatalf("second pass re-verified %d B of unmodified objects", got)
	}
	// Every view of the pool shares the table.
	if got := readAll(p.ReadView()); got != 0 {
		t.Fatalf("a second view re-verified %d B", got)
	}
	// A commit writing object A alone costs exactly A's re-verification.
	const a = 7_777
	err := p.Run(func(tx *Tx) error {
		node, err := Open[listNode](tx, oids[a])
		if err != nil {
			return err
		}
		node.Val += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(view); got != user {
		t.Fatalf("after one commit %d B were verified, want exactly the written object's %d", got, user)
	}
}

// TestReadViewFreedSlotReverified: a freed slot's bit does not survive into
// the object that reuses the slot.
func TestReadViewFreedSlotReverified(t *testing.T) {
	geo := DefaultGeometry()
	geo.NumZones = 1 // one zone, one run chunk: the freed slot is the next one handed out
	p, err := Create(Config{Mode: ModePangolinMLPC, Geometry: geo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	oids := readViewObjs(t, p, 10)
	view := p.ReadView()
	for _, oid := range oids {
		if _, err := view.Get(oid); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Run(func(tx *Tx) error { return tx.Free(oids[3]) }); err != nil {
		t.Fatal(err)
	}
	var reused OID
	err = p.Run(func(tx *Tx) error {
		oid, node, err := Alloc[listNode](tx, 1)
		if err != nil {
			return err
		}
		node.Val = 33
		reused = oid
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reused != oids[3] {
		t.Fatalf("allocator did not reuse the freed slot (%#x, was %#x)", reused.Off, oids[3].Off)
	}
	before := p.Stats().VerifiedBytes.Load()
	node, err := GetFromPool[listNode](view, reused)
	if err != nil || node.Val != 33 {
		t.Fatalf("reused slot reads %v, %v", node, err)
	}
	if got := p.Stats().VerifiedBytes.Load() - before; got != SizeOf[listNode]() {
		t.Fatalf("reused slot: %d B verified, want %d", got, SizeOf[listNode]())
	}
}

// TestReadViewAbortKeepsVerification: an aborted transaction wrote nothing,
// so it clears nothing.
func TestReadViewAbortKeepsVerification(t *testing.T) {
	p := newPool(t, ModePangolinMLPC)
	oids := readViewObjs(t, p, 4)
	view := p.ReadView()
	for _, oid := range oids {
		if _, err := view.Get(oid); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	node, err := Open[listNode](tx, oids[0])
	if err != nil {
		t.Fatal(err)
	}
	node.Val = 99
	tx.Abort()
	before := p.Stats().VerifiedBytes.Load()
	for _, oid := range oids {
		if _, err := view.Get(oid); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().VerifiedBytes.Load() - before; got != 0 {
		t.Fatalf("abort cost %d B of re-verification", got)
	}
}

// TestReadViewConcurrentReaders: readers on several goroutines set bits in
// shared words of the table while verifying neighbouring objects; none is
// lost (-race covers the table's accesses).
func TestReadViewConcurrentReaders(t *testing.T) {
	p := newPool(t, ModePangolinMLPC)
	oids := readViewObjs(t, p, 2_000)
	view := p.ReadView()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(oids); i += 4 { // interleaved: neighbours share words
				if _, err := view.Get(oids[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	before := p.Stats().VerifiedBytes.Load()
	for _, oid := range oids {
		if _, err := view.Get(oid); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().VerifiedBytes.Load() - before; got != 0 {
		t.Fatalf("%d B re-verified: a concurrent reader's bit was lost", got)
	}
}

// TestCheckPODConcurrentFirstUse: goroutines meeting new types at the same
// moment each publish a verdict into the swapped map without losing
// another's, and a rejected type stays rejected.
func TestCheckPODConcurrentFirstUse(t *testing.T) {
	type a struct{ X uint64 }
	type b struct{ X, Y uint64 }
	type c struct{ X [3]uint64 }
	type bad struct{ P *uint64 }
	data := make([]byte, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, e1 := View[a](data)
				_, e2 := View[b](data)
				_, e3 := View[c](data)
				if e1 != nil || e2 != nil || e3 != nil {
					t.Errorf("plain types rejected: %v %v %v", e1, e2, e3)
					return
				}
				if _, err := View[bad](data); err == nil {
					t.Error("pointer-bearing type accepted")
					return
				}
			}
		}()
	}
	wg.Wait()
}
