package core

import (
	"testing"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/mbuf"
)

// TestSliceKeptPastCommitReadsPoison: with the poison hook on, a
// transaction's micro-buffer is filled with poison the moment its
// transaction commits, so a slice kept past Commit reads poison, not the
// bytes it committed; and a write through that slice is caught when the
// next transaction takes the recycled buffer.
func TestSliceKeptPastCommitReadsPoison(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	e := mkEngine(t, PangolinMLPC)
	oid := mustAlloc(t, e, 64)
	var kept []byte
	if err := e.Run(func(tx *Tx) error {
		data, err := tx.AddRange(oid, 0, 8)
		copy(data, "12345678")
		kept = data
		return err
	}); err != nil {
		t.Fatal(err)
	}
	//pgllint:ignore txwrite the test reads a slice kept past its commit on purpose
	for i, b := range kept[:8] {
		if b != mbuf.PoisonByte {
			t.Fatalf("byte %d of a slice kept past Commit reads %#x, not poison", i, b)
		}
	}
	got, err := e.Get(oid)
	if err != nil || string(got[:8]) != "12345678" {
		t.Fatalf("committed bytes %q (%v)", got[:8], err)
	}
	//pgllint:ignore txwrite the test writes through a slice kept past its commit on purpose
	kept[0] = 0
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a buffer written after its transaction ended did not panic")
		}
	}()
	_ = e.Run(func(tx *Tx) error {
		_, err := tx.AddRange(oid, 0, 8)
		return err
	})
}

// mustAlloc commits a fresh size-byte object and returns its OID.
func mustAlloc(t *testing.T, e *Engine, size uint64) (oid layout.OID) {
	t.Helper()
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(size, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}
