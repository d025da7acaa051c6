package core

import (
	"bytes"
	"errors"
	"testing"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/mbuf"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

var allModes = []Mode{Pmemobj, Pangolin, PangolinML, PangolinMLP, PangolinMLPC, PmemobjR, PmemobjP}

func mkEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	e, err := Create(dev, geo, Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// reopenEngine closes e and reopens its device (optionally after a crash).
func reopenEngine(t *testing.T, e *Engine, crash bool, seed int64) *Engine {
	t.Helper()
	dev := e.Device()
	if crash {
		dev = dev.CrashCopy(nvm.CrashStrict, seed)
	}
	e.Close()
	ne, err := Open(dev, e.opts, e.ReplicaDevice())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ne.Close)
	return ne
}

// verifyParity checks invariant P1 for every zone (engine quiesced).
func verifyParity(t *testing.T, e *Engine) {
	t.Helper()
	if !e.mode.Parity() {
		return
	}
	for z := uint64(0); z < e.geo.NumZones; z++ {
		bad, err := e.par.VerifyZone(z)
		if err != nil {
			t.Fatalf("zone %d parity verify: %v", z, err)
		}
		if bad != -1 {
			t.Fatalf("zone %d parity broken at column %d", z, bad)
		}
	}
}

// verifyChecksums checks invariant P2 for every live object.
func verifyChecksums(t *testing.T, e *Engine) {
	t.Helper()
	if !e.mode.Checksums() {
		return
	}
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadObjects != 0 {
		t.Fatalf("scrub found %d corrupt objects: %+v", rep.BadObjects, rep)
	}
}

func TestAllocCommitReadAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			var oid layout.OID
			err := e.Run(func(tx *Tx) error {
				var data []byte
				var err error
				oid, data, err = tx.Alloc(100, 7)
				if err != nil {
					return err
				}
				copy(data, "persistent payload")
				if mode.MicroBuffered() {
					// Alloc marks everything modified already; an extra
					// AddRange must be harmless.
					if _, err := tx.AddRange(oid, 0, 18); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:18]) != "persistent payload" {
				t.Fatalf("read back %q", got[:18])
			}
			if typ, _ := e.ObjectType(oid); typ != 7 {
				t.Fatalf("type %d", typ)
			}
			if sz, _ := e.ObjectSize(oid); sz != 100 {
				t.Fatalf("size %d", sz)
			}
			verifyParity(t, e)
			verifyChecksums(t, e)
		})
	}
}

func TestOverwriteAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			var oid layout.OID
			if err := e.Run(func(tx *Tx) error {
				var err error
				oid, _, err = tx.Alloc(256, 1)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(func(tx *Tx) error {
				data, err := tx.AddRange(oid, 32, 16)
				if err != nil {
					return err
				}
				copy(data[32:48], "sixteen bytes ok")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			got, err := e.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[32:48]) != "sixteen bytes ok" {
				t.Fatalf("read %q", got[32:48])
			}
			// Untouched bytes remain zero.
			for i := 0; i < 32; i++ {
				if got[i] != 0 {
					t.Fatalf("byte %d dirtied: %d", i, got[i])
				}
			}
			verifyParity(t, e)
			verifyChecksums(t, e)
		})
	}
}

func TestStoredChecksumMatchesFullRecompute(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(500, 2)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Several incremental updates; the stored checksum must always equal
	// a full recomputation (P2, exercising csum.Update composition).
	for i := 0; i < 5; i++ {
		if err := e.Run(func(tx *Tx) error {
			data, err := tx.AddRange(oid, uint64(i*90), 40)
			if err != nil {
				return err
			}
			for j := 0; j < 40; j++ {
				data[i*90+j] = byte(i*7 + j)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		img := make([]byte, 500+layout.ObjHeaderSize)
		if err := e.Device().ReadAt(img, oid.HeaderOff()); err != nil {
			t.Fatal(err)
		}
		hdr := layout.DecodeObjHeader(img)
		if got := layout.ObjChecksum(img); got != hdr.Csum {
			t.Fatalf("iteration %d: stored csum %#x != recomputed %#x", i, hdr.Csum, got)
		}
	}
}

func TestAbortLeavesNoTrace(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			var oid layout.OID
			if err := e.Run(func(tx *Tx) error {
				var err error
				oid, _, err = tx.Alloc(64, 1)
				if err != nil {
					return err
				}
				data, err := tx.AddRange(oid, 0, 8)
				if err != nil {
					return err
				}
				copy(data, "original")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			live := e.heap.CountLive()

			// Abort an overwrite.
			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			data, err := tx.AddRange(oid, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			copy(data, "scratch!")
			tx.Abort()
			got, err := e.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:8]) != "original" {
				t.Fatalf("abort leaked writes: %q", got[:8])
			}

			// Abort an allocation.
			tx, err = e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := tx.Alloc(64, 2); err != nil {
				t.Fatal(err)
			}
			tx.Abort()
			if e.heap.CountLive() != live {
				t.Fatalf("aborted alloc leaked: %d live, want %d", e.heap.CountLive(), live)
			}
			verifyParity(t, e)
			verifyChecksums(t, e)
		})
	}
}

func TestFreeAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			var oid layout.OID
			if err := e.Run(func(tx *Tx) error {
				var err error
				oid, _, err = tx.Alloc(100, 1)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if err := e.Run(func(tx *Tx) error { return tx.Free(oid) }); err != nil {
				t.Fatal(err)
			}
			if e.heap.CountLive() != 0 {
				t.Fatalf("%d live after free", e.heap.CountLive())
			}
			// Alloc+free in one tx cancels.
			if err := e.Run(func(tx *Tx) error {
				o, _, err := tx.Alloc(64, 1)
				if err != nil {
					return err
				}
				return tx.Free(o)
			}); err != nil {
				t.Fatal(err)
			}
			if e.heap.CountLive() != 0 {
				t.Fatal("same-tx alloc+free leaked")
			}
			verifyParity(t, e)
		})
	}
}

func TestRootPersistsAcrossReopen(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			root, err := e.Root(128, 42)
			if err != nil {
				t.Fatal(err)
			}
			if root.IsNil() {
				t.Fatal("nil root")
			}
			// Second call returns the same root.
			root2, err := e.Root(128, 42)
			if err != nil || root2 != root {
				t.Fatalf("root not stable: %+v vs %+v (%v)", root2, root, err)
			}
			if _, err := e.Root(999, 42); err == nil {
				t.Fatal("size mismatch accepted")
			}
			e2 := reopenEngine(t, e, false, 0)
			root3, err := e2.Root(128, 42)
			if err != nil || root3 != root {
				t.Fatalf("root lost across reopen: %+v vs %+v (%v)", root3, root, err)
			}
		})
	}
}

func TestIsolationBetweenTransactions(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(64, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tx1, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx1.Abort()
	data, err := tx1.AddRange(oid, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "tx1 view")
	// Another transaction's Get must not see tx1's uncommitted bytes
	// (micro-buffers are private, §3.4).
	tx2, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Abort()
	got, err := tx2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:8]) == "tx1 view" {
		t.Fatal("uncommitted micro-buffer leaked across transactions")
	}
	// tx1's own Get returns its buffer (read-your-writes).
	own, err := tx1.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(own[:8]) != "tx1 view" {
		t.Fatal("transaction does not see its own writes")
	}
}

func TestCanaryAbortsCommit(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(40, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), before...)

	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	data, err := tx.AddRange(oid, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Overrun: write past the object's end, as a buffer-overflow bug
	// would. The micro-buffer's padded capacity makes this physically
	// possible; the tail canary takes the hit.
	over := data[:cap(data)]
	for i := len(data); i < len(over); i++ {
		over[i] = 0xEE
	}
	b, _ := tx.bufs.Lookup(oid)
	raw := b.Image()
	_ = raw
	// Clobber beyond the image through the backing array.
	full := data[:cap(data)]
	full[cap(data)-1] = 0xEE

	err = tx.Commit()
	var ce *mbuf.CanaryError
	if !errors.As(err, &ce) {
		t.Fatalf("overrun not caught by canary: %v", err)
	}
	// NVMM untouched.
	after, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, snapshot) {
		t.Fatal("corruption propagated to NVMM despite canary")
	}
	verifyParity(t, e)
}

func TestEmptyTransaction(t *testing.T) {
	for _, mode := range allModes {
		e := mkEngine(t, mode)
		if err := e.Run(func(tx *Tx) error { return nil }); err != nil {
			t.Fatalf("%v: empty tx: %v", mode, err)
		}
		if e.stats.EmptyTxs.Load() != 1 {
			t.Fatalf("%v: empty tx not counted", mode)
		}
	}
}

func TestOIDValidation(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	var ce *CorruptionError
	if _, err := tx.Open(layout.NilOID); err == nil || errors.As(err, &ce) {
		t.Fatalf("nil OID: %v, want a plain caller error", err)
	}
	// A foreign pool's OID can only have been read from a scribbled
	// pointer: typed, on every transaction entry point, so owner paths heal.
	foreign := layout.OID{Pool: e.uuid + 1, Off: 4096}
	for name, call := range map[string]func() error{
		"Open":     func() error { _, err := tx.Open(foreign); return err },
		"Get":      func() error { _, err := tx.Get(foreign); return err },
		"AddRange": func() error { _, err := tx.AddRange(foreign, 0, 8); return err },
		"Free":     func() error { return tx.Free(foreign) },
	} {
		if err := call(); !errors.As(err, &ce) || ce.OID != foreign {
			t.Fatalf("%s of a foreign pool OID: %v, want a CorruptionError naming it", name, err)
		}
	}
	if _, err := tx.Open(layout.OID{Pool: e.uuid, Off: 64}); err == nil {
		t.Fatal("OID outside zone data accepted")
	}
}

func TestMediaErrorOnlineRecovery(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		oid, data, err = tx.Alloc(1000, 1)
		if err != nil {
			return err
		}
		for i := range data {
			data[i] = byte(i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Lose the page under the object.
	e.InjectMediaError(oid.Off)
	if !e.Device().IsPoisoned(oid.Off) {
		t.Fatal("injection failed")
	}
	// A read triggers SIGBUS-analog recovery and returns good data.
	got, err := e.Get(oid)
	if err != nil {
		t.Fatalf("online recovery failed: %v", err)
	}
	for i := range got {
		if got[i] != byte(i) {
			t.Fatalf("byte %d: got %d want %d", i, got[i], byte(i))
		}
	}
	if e.Device().IsPoisoned(oid.Off) {
		t.Fatal("page still poisoned after repair")
	}
	if e.stats.Recovered.Load() == 0 {
		t.Fatal("recovery not counted")
	}
	verifyParity(t, e)
	verifyChecksums(t, e)
}

func TestScribbleDetectedAndRepaired(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		oid, data, err = tx.Alloc(200, 1)
		if err != nil {
			return err
		}
		copy(data, "precious data that must survive scribbles")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Software bug overwrites part of the object, bypassing the library.
	e.InjectScribble(oid.Off+5, 20, 99)
	// Opening the object verifies the checksum, detects the scribble, and
	// restores from parity (§3.3, §3.6).
	if err := e.Run(func(tx *Tx) error {
		data, err := tx.Open(oid)
		if err != nil {
			return err
		}
		if string(data[:13]) != "precious data" {
			t.Fatalf("restored data wrong: %q", data[:13])
		}
		return nil
	}); err != nil {
		t.Fatalf("scribble recovery failed: %v", err)
	}
	verifyParity(t, e)
	verifyChecksums(t, e)
}

func TestScribbleInvisibleWithoutChecksums(t *testing.T) {
	// MLP protects against media errors but not scribbles (the Pmemobj-R
	// comparison point): a scribble goes undetected at open.
	e := mkEngine(t, PangolinMLP)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		oid, data, err = tx.Alloc(100, 1)
		if err != nil {
			return err
		}
		copy(data, "unprotected")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.InjectScribble(oid.Off, 5, 7)
	got, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:11]) == "unprotected" {
		t.Fatal("scribble rolled back without checksums? (injection failed)")
	}
}

func TestScrubRepairsScribbles(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oids []layout.OID
	for i := 0; i < 10; i++ {
		if err := e.Run(func(tx *Tx) error {
			oid, data, err := tx.Alloc(128, 1)
			if err != nil {
				return err
			}
			copy(data, "scrub target")
			oids = append(oids, oid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.InjectScribble(oids[3].Off, 10, 5)
	e.InjectScribble(oids[7].Off+50, 30, 6)
	rep, err := e.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BadObjects < 1 || rep.Repaired != rep.BadObjects || rep.Unrecovered != 0 {
		t.Fatalf("scrub report %+v", rep)
	}
	for _, oid := range oids {
		got, err := e.Get(oid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:12]) != "scrub target" {
			t.Fatalf("object %#x not restored: %q", oid.Off, got[:12])
		}
	}
	verifyParity(t, e)
}

func TestPmemobjROfflineRepair(t *testing.T) {
	e := mkEngine(t, PmemobjR)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		oid, data, err = tx.Alloc(100, 1)
		if err != nil {
			return err
		}
		copy(data, "mirrored")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.InjectMediaError(oid.Off)
	// Online access fails: Pmemobj-R repairs only offline (§2.3).
	if _, err := e.Get(oid); err == nil {
		t.Fatal("Pmemobj-R recovered online; should require reopen")
	}
	// Reopen repairs from the replica.
	e2 := reopenEngine(t, e, false, 0)
	got, err := e2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:8]) != "mirrored" {
		t.Fatalf("replica repair wrong: %q", got[:8])
	}
}

func TestPmemobjRScribbleUndetected(t *testing.T) {
	// The paper's point: replication alone cannot detect scribbles — the
	// corruption simply persists (and would eventually propagate).
	e := mkEngine(t, PmemobjR)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		oid, data, err = tx.Alloc(100, 1)
		if err != nil {
			return err
		}
		copy(data, "soon corrupt")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.InjectScribble(oid.Off, 4, 3)
	got, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:12]) == "soon corrupt" {
		t.Fatal("scribble had no effect")
	}
	e2 := reopenEngine(t, e, false, 0)
	got, err = e2.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:12]) == "soon corrupt" {
		t.Fatal("reopen silently healed a scribble replication cannot see")
	}
}

func TestConservativeGetVerifies(t *testing.T) {
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	e, err := Create(dev, geo, Options{Mode: PangolinMLPC, Policy: VerifyConservative})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		var data []byte
		oid, data, err = tx.Alloc(100, 1)
		if err != nil {
			return err
		}
		copy(data, "conservative")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	e.stats.ResetAccounting()
	if _, err := e.Get(oid); err != nil {
		t.Fatal(err)
	}
	if e.stats.VerifiedBytes.Load() == 0 {
		t.Fatal("conservative Get did not verify")
	}
	if e.stats.UnverifiedBytes.Load() != 0 {
		t.Fatal("conservative Get counted unverified bytes")
	}
	// A scribble is caught directly by Get.
	e.InjectScribble(oid.Off, 6, 11)
	got, err := e.Get(oid)
	if err != nil {
		t.Fatalf("conservative recovery failed: %v", err)
	}
	if string(got[:12]) != "conservative" {
		t.Fatalf("got %q", got[:12])
	}
}

func TestDefaultGetCountsUnverified(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var err error
		oid, _, err = tx.Alloc(100, 1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	e.stats.ResetAccounting()
	if _, err := e.Get(oid); err != nil {
		t.Fatal(err)
	}
	if e.stats.UnverifiedBytes.Load() != 100 {
		t.Fatalf("unverified = %d, want 100", e.stats.UnverifiedBytes.Load())
	}
}
