package kvtest

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
)

// RunBatch runs the group-commit conformance suite over the Map's
// transaction-scoped operations (InsertTx/RemoveTx/LookupTx): mixed
// single-op and batched workloads against a volatile model,
// read-your-writes inside one transaction, all-or-nothing aborts, and
// crash recovery from an image taken in the middle of an uncommitted
// batch.
func RunBatch(t *testing.T, h Harness) {
	t.Run("BatchModel", func(t *testing.T) { testBatchModel(t, h, pangolin.ModePangolinMLPC, 11) })
	t.Run("BatchModelPmemobj", func(t *testing.T) { testBatchModel(t, h, pangolin.ModePmemobj, 12) })
	t.Run("BatchReadYourWrites", func(t *testing.T) { testBatchRYW(t, h) })
	t.Run("BatchAbortAtomicity", func(t *testing.T) { testBatchAbort(t, h, pangolin.ModePangolinMLPC) })
	t.Run("BatchAbortAtomicityPmemobj", func(t *testing.T) { testBatchAbort(t, h, pangolin.ModePmemobj) })
	t.Run("BatchCrashRecovery", func(t *testing.T) { testBatchCrash(t, h) })
}

// batchOp is one model-mirrored operation inside a batch.
type batchOp struct {
	kind uint8 // 0 insert, 1 remove, 2 lookup
	k, v uint64
}

// applyBatch runs ops in one transaction, checking RemoveTx/LookupTx
// results against the expected intermediate model state.
func applyBatch(t *testing.T, m kv.Map, p *pangolin.Pool, model map[uint64]uint64, ops []batchOp) {
	t.Helper()
	// The batch must observe its own earlier operations, so mirror them
	// into a scratch model as the transaction proceeds.
	scratch := make(map[uint64]uint64, len(model))
	for k, v := range model {
		scratch[k] = v
	}
	err := p.Run(func(tx *pangolin.Tx) error {
		for i, op := range ops {
			switch op.kind {
			case 0:
				if err := m.InsertTx(tx, op.k, op.v); err != nil {
					return fmt.Errorf("batch op %d InsertTx(%d): %w", i, op.k, err)
				}
				scratch[op.k] = op.v
			case 1:
				ok, err := m.RemoveTx(tx, op.k)
				if err != nil {
					return fmt.Errorf("batch op %d RemoveTx(%d): %w", i, op.k, err)
				}
				if _, want := scratch[op.k]; ok != want {
					return fmt.Errorf("batch op %d RemoveTx(%d) = %v, want %v", i, op.k, ok, want)
				}
				delete(scratch, op.k)
			case 2:
				v, ok, err := m.LookupTx(tx, op.k)
				if err != nil {
					return fmt.Errorf("batch op %d LookupTx(%d): %w", i, op.k, err)
				}
				wantV, want := scratch[op.k]
				if ok != want || (ok && v != wantV) {
					return fmt.Errorf("batch op %d LookupTx(%d) = (%d,%v), want (%d,%v)",
						i, op.k, v, ok, wantV, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet(t, p, "after batch")
	for k, v := range scratch {
		model[k] = v
	}
	for k := range model {
		if _, ok := scratch[k]; !ok {
			delete(model, k)
		}
	}
}

// testBatchModel interleaves single operations with multi-op transactions,
// mirroring everything against a volatile map.
func testBatchModel(t *testing.T, h Harness, mode pangolin.Mode, seed int64) {
	p := newPool(t, mode)
	m := h.newMap(t, p)
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]uint64)
	const rounds = 250
	const keySpace = 200
	for i := 0; i < rounds; i++ {
		if rng.Intn(2) == 0 {
			// One batch of 2–8 ops in a single transaction.
			n := 2 + rng.Intn(7)
			ops := make([]batchOp, n)
			for j := range ops {
				ops[j] = batchOp{
					kind: uint8(rng.Intn(3)),
					k:    uint64(rng.Intn(keySpace)),
					v:    rng.Uint64(),
				}
			}
			applyBatch(t, m, p, model, ops)
			continue
		}
		// A single op through the non-Tx API: both paths must agree.
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			if err := m.Insert(k, v); err != nil {
				t.Fatalf("round %d insert %d: %v", i, k, err)
			}
			model[k] = v
		case 1:
			ok, err := m.Remove(k)
			if err != nil {
				t.Fatalf("round %d remove %d: %v", i, k, err)
			}
			if _, want := model[k]; ok != want {
				t.Fatalf("round %d remove %d = %v, want %v", i, k, ok, want)
			}
			delete(model, k)
		case 2:
			v, ok, err := m.Lookup(k)
			if err != nil {
				t.Fatalf("round %d lookup %d: %v", i, k, err)
			}
			wantV, want := model[k]
			if ok != want || (ok && v != wantV) {
				t.Fatalf("round %d lookup %d = (%d,%v), want (%d,%v)", i, k, v, ok, wantV, want)
			}
		}
	}
	for k := uint64(0); k < keySpace; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		wantV, want := model[k]
		if ok != want || (ok && v != wantV) {
			t.Fatalf("final lookup %d = (%d,%v), model (%d,%v)", k, v, ok, wantV, want)
		}
	}
}

// testBatchRYW checks that one transaction observes its own writes in
// sequence: insert → lookup → remove → lookup → reinsert.
func testBatchRYW(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m := h.newMap(t, p)
	if err := m.Insert(1, 100); err != nil {
		t.Fatal(err)
	}
	err := p.Run(func(tx *pangolin.Tx) error {
		if v, ok, err := m.LookupTx(tx, 1); err != nil || !ok || v != 100 {
			return fmt.Errorf("pre-existing key inside tx: (%d,%v,%v)", v, ok, err)
		}
		if err := m.InsertTx(tx, 2, 200); err != nil {
			return err
		}
		if v, ok, err := m.LookupTx(tx, 2); err != nil || !ok || v != 200 {
			return fmt.Errorf("own insert invisible: (%d,%v,%v)", v, ok, err)
		}
		if ok, err := m.RemoveTx(tx, 2); err != nil || !ok {
			return fmt.Errorf("own insert not removable: (%v,%v)", ok, err)
		}
		if _, ok, err := m.LookupTx(tx, 2); err != nil || ok {
			return fmt.Errorf("own remove invisible: (%v,%v)", ok, err)
		}
		if ok, err := m.RemoveTx(tx, 1); err != nil || !ok {
			return fmt.Errorf("pre-existing key not removable: (%v,%v)", ok, err)
		}
		return m.InsertTx(tx, 3, 300)
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet(t, p, "after batch")
	if _, ok, _ := m.Lookup(1); ok {
		t.Fatal("key 1 survived its in-batch remove")
	}
	if _, ok, _ := m.Lookup(2); ok {
		t.Fatal("key 2 (inserted and removed in one batch) present after commit")
	}
	if v, ok, _ := m.Lookup(3); !ok || v != 300 {
		t.Fatal("key 3 lost")
	}
}

// testBatchAbort errors out of a transaction after several operations; the
// structure must be exactly as before the batch.
func testBatchAbort(t *testing.T, h Harness, mode pangolin.Mode) {
	p := newPool(t, mode)
	m := h.newMap(t, p)
	model := make(map[uint64]uint64)
	for k := uint64(0); k < 40; k++ {
		if err := m.Insert(k, k*11); err != nil {
			t.Fatal(err)
		}
		model[k] = k * 11
	}
	boom := fmt.Errorf("boom")
	err := p.Run(func(tx *pangolin.Tx) error {
		for k := uint64(0); k < 10; k++ {
			if err := m.InsertTx(tx, 100+k, k); err != nil {
				return err
			}
		}
		if ok, err := m.RemoveTx(tx, 5); err != nil || !ok {
			return fmt.Errorf("RemoveTx(5) in doomed batch: (%v,%v)", ok, err)
		}
		if err := m.InsertTx(tx, 7, 999); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("doomed batch returned %v, want the injected error", err)
	}
	quiet(t, p, "after an aborted batch")
	for k := uint64(0); k < 150; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %d after abort: %v", k, err)
		}
		wantV, want := model[k]
		if ok != want || (ok && v != wantV) {
			t.Fatalf("key %d after abort = (%d,%v), want (%d,%v): aborted batch leaked",
				k, v, ok, wantV, want)
		}
	}
}

// testBatchCrash applies committed batches, then takes a crash image while
// a further batch is half-applied but uncommitted. Reopening the image
// must show every committed batch in full and nothing of the in-flight
// one — batches are atomic under power failure.
func testBatchCrash(t *testing.T, h Harness) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: testGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	m := h.newMap(t, p)
	model := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(31))
	for batch := 0; batch < 10; batch++ {
		ops := make([]batchOp, 8)
		for j := range ops {
			kind := uint8(rng.Intn(2)) // inserts and removes only
			ops[j] = batchOp{kind: kind, k: uint64(rng.Intn(100)), v: rng.Uint64()}
		}
		applyBatch(t, m, p, model, ops)
	}

	// Mid-batch crash: open a transaction, apply half its operations,
	// snapshot the device as a power failure would leave it, then let the
	// batch commit on the live pool.
	var crashed *pangolin.Device
	err = p.Run(func(tx *pangolin.Tx) error {
		for k := uint64(200); k < 204; k++ {
			if err := m.InsertTx(tx, k, k); err != nil {
				return err
			}
		}
		if _, err := m.RemoveTx(tx, 0); err != nil {
			return err
		}
		crashed = p.Device().CrashCopy(pangolin.CrashEvictRandom, 97)
		for k := uint64(204); k < 208; k++ {
			if err := m.InsertTx(tx, k, k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet(t, p, "after batch")
	anchor := m.Anchor()
	p.Close()

	p2, err := pangolin.OpenDevice(crashed, pangolin.Config{Mode: pangolin.ModePangolinMLPC}, nil)
	if err != nil {
		t.Fatalf("recovery from mid-batch crash image: %v", err)
	}
	defer p2.Close()
	quiet(t, p2, "after recovery")
	m2, err := h.Attach(p2, anchor)
	if err != nil {
		t.Fatal(err)
	}
	// Committed batches are all there…
	for k, want := range model {
		v, ok, err := m2.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %d after crash recovery: %v", k, err)
		}
		if !ok || v != want {
			t.Fatalf("committed key %d = (%d,%v), want (%d,true)", k, v, ok, want)
		}
	}
	// …and the uncommitted batch left no trace.
	for k := uint64(200); k < 208; k++ {
		if _, ok, _ := m2.Lookup(k); ok {
			t.Fatalf("uncommitted batch key %d visible after crash", k)
		}
	}
	if rep, err := p2.Scrub(); err != nil || !clean(p2, rep) {
		t.Fatalf("scrub after mid-batch crash: %+v, %v", rep, err)
	}
	quiet(t, p2, "after scrub")
}
