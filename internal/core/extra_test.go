package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/logrec"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// TestScrubPolicyTriggers verifies the background scrubbing thread fires
// every ScrubEvery transactions ("Scrub" mode, §3.3).
func TestScrubPolicyTriggers(t *testing.T) {
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	e, err := Create(dev, geo, Options{Mode: PangolinMLPC, ScrubEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(64, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := e.Run(func(tx *Tx) error {
			data, err := tx.AddRange(oid, 0, 8)
			if err != nil {
				return err
			}
			data[0] = byte(i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.stats.ScrubRuns.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("scrubber never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScrubPolicyRepairsInBackground: a scribble is healed by the
// scrubbing thread without any explicit verification call.
func TestScrubPolicyRepairsInBackground(t *testing.T) {
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	e, err := Create(dev, geo, Options{Mode: PangolinMLPC, ScrubEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var victim, other layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		victim, data, err = tx.Alloc(100, 1)
		if err != nil {
			return err
		}
		copy(data, "healed by scrubbing")
		other, _, err = tx.Alloc(100, 2)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.InjectScribble(victim.Off, 8, 3)
	var ce *CorruptionError
	if _, err := e.GetRO(victim); !errors.As(err, &ce) {
		t.Fatalf("read of the scribbled object: %v, want a checksum mismatch", err)
	}
	// Commit enough unrelated transactions to trigger a scrub.
	for i := 0; i < 10; i++ {
		if err := e.Run(func(tx *Tx) error {
			data, err := tx.AddRange(other, 0, 8)
			if err != nil {
				return err
			}
			data[0] = byte(i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Poll with GetRO: it never repairs, so a success is the scrubber's
	// work, and it holds the commit gate a repair's freeze excludes — a
	// raw device read here would race the scrubber rewriting the page.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if data, err := e.GetRO(victim); err == nil && string(data[:19]) == "healed by scrubbing" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrubber did not repair the scribble")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMultiPageLossRecovers: losing several pages in DIFFERENT page
// columns is recoverable (the paper's "in many cases, it can recover from
// the concurrent loss of multiple pages").
func TestMultiPageLossRecovers(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	geo := e.geo
	// Objects in different rows → different page columns.
	var oids []layout.OID
	for i := 0; i < 6; i++ {
		if err := e.Run(func(tx *Tx) error {
			oid, data, err := tx.Alloc(3000, uint32(i))
			if err != nil {
				return err
			}
			for j := range data {
				data[j] = byte(i)
			}
			oids = append(oids, oid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Poison pages under two objects that live in different columns.
	a, b := oids[0], oids[len(oids)-1]
	la := geo.Locate(a.Off)
	lb := geo.Locate(b.Off)
	if la.Col/layout.PageSize == lb.Col/layout.PageSize && la.Zone == lb.Zone {
		t.Skip("objects landed in the same page column; geometry too small to place apart")
	}
	e.InjectMediaError(a.Off)
	e.InjectMediaError(b.Off)
	for i, oid := range []layout.OID{a, b} {
		got, err := e.Get(oid)
		if err != nil {
			t.Fatalf("object %d unrecoverable: %v", i, err)
		}
		want := byte(0)
		if i == 1 {
			want = byte(len(oids) - 1)
		}
		if got[0] != want {
			t.Fatalf("object %d content wrong after multi-page recovery", i)
		}
	}
	verifyParity(t, e)
}

// TestSameColumnDoubleLossFails: two lost pages overlapping in one page
// column defeat single parity — the documented unrecoverable case (§3.1).
func TestSameColumnDoubleLossFails(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	geo := e.geo
	// Poison the same page column in two different rows of zone 0.
	off1 := geo.RowByteOff(0, 3, 0)
	off2 := geo.RowByteOff(0, 5, 0)
	e.dev.Poison(off1)
	e.dev.Poison(off2)
	err := e.recoverPages([]uint64{off1 &^ uint64(layout.PageSize-1)})
	if err == nil {
		t.Fatal("double loss in one column repaired — impossible with single parity")
	}
}

// TestLogOverflowThroughEngine: a transaction bigger than one lane spills
// into overflow extents and still commits and recovers.
func TestLogOverflowThroughEngine(t *testing.T) {
	geo := layout.Default() // 32 KB lanes
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	e, err := Create(dev, geo, Options{Mode: PangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	// Object bigger than a lane: whole-object overwrite must overflow.
	size := geo.LaneSize * 3
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(size, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x7E}, int(size))
	// Crash right after this commit to force replay through the chain.
	if err := e.Run(func(tx *Tx) error {
		data, err := tx.AddRange(oid, 0, size)
		if err != nil {
			return err
		}
		copy(data, payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e2 := reopenEngine(t, e, true, 3)
	got, err := e2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("overflowed transaction lost data")
	}
	verifyParity(t, e2)
	verifyChecksums(t, e2)
}

// TestWrongModeOpenRejected: opening a pool under a different mode than
// it was created with must fail loudly.
func TestWrongModeOpenRejected(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	dev := e.Device()
	e.Close()
	if _, err := Open(dev, Options{Mode: Pmemobj}, nil); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	if _, err := Open(dev, Options{Mode: PmemobjR}, nil); err == nil {
		t.Fatal("replica mode accepted without matching flags")
	}
	// Correct mode reopens fine.
	e2, err := Open(dev, Options{Mode: PangolinMLPC}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2.Close()
}

// TestOpenGarbageRejected: a device that is not a pool fails cleanly.
func TestOpenGarbageRejected(t *testing.T) {
	dev := nvm.New(1<<20, nvm.Options{TrackPersistence: true})
	if _, err := Open(dev, Options{Mode: PangolinMLPC}, nil); err == nil {
		t.Fatal("garbage device opened")
	}
}

// TestClosedEngineRejectsWork: operations after Close fail with ErrClosed.
func TestClosedEngineRejectsWork(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(64, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin after close: %v", err)
	}
	if _, err := e.Get(oid); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := e.Root(64, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Root after close: %v", err)
	}
}

// TestLaneReleaseOnAbortAndCommit: transactions always return their lane.
func TestLaneReleaseOnAbortAndCommit(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	free0 := e.lm.FreeLanes()
	for i := 0; i < 10; i++ {
		tx, err := e.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, _, err := tx.Alloc(64, 1); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Abort()
		}
	}
	if got := e.lm.FreeLanes(); got != free0 {
		t.Fatalf("lanes leaked: %d → %d", free0, got)
	}
}

// TestDoubleCommitRejected: finishing a transaction twice is an error.
func TestDoubleCommitRejected(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit allowed")
	}
	tx.Abort() // must be a no-op, not a crash
	if _, err := tx.Open(layout.OID{Pool: e.uuid, Off: 4096}); err == nil {
		t.Fatal("operation on finished tx allowed")
	}
}

// TestUndoLogRecoveredAcrossReopen: a pmemobj transaction interrupted
// mid-flight (lane active, data partially written in place) rolls back at
// open.
func TestUndoLogRecoveredAcrossReopen(t *testing.T) {
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	e, err := Create(dev, geo, Options{Mode: Pmemobj})
	if err != nil {
		t.Fatal(err)
	}
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		oid, data, err = tx.Alloc(64, 1)
		if err != nil {
			return err
		}
		copy(data, "original")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Start a transaction, write in place, do NOT commit.
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	data, err := tx.AddRange(oid, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "tornnnnn")
	e.dev.Persist(oid.Off, 8) // the torn write even became durable

	// Crash without commit.
	img := dev.CrashCopy(nvm.CrashStrict, 5)
	e2, err := Open(img, Options{Mode: Pmemobj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, err := e2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:8]) != "original" {
		t.Fatalf("undo rollback failed: %q", got[:8])
	}
	// The lane must be free again.
	if e2.lm.FreeLanes() != int(geo.NumLanes) {
		t.Fatal("lane leaked after rollback")
	}
	_ = logrec.StateIdle // document the linkage for readers
}
