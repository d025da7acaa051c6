package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
)

// Tests for the concurrent verified-read fast path: engagement (reads
// actually bypass the worker), fallback (gate contention, faults,
// shutdown), and the -race reader/writer torture that hammers Get storms
// against group commits, saves, scrubs, and crash images.

// encode packs a per-key sequence number and the key into one value so
// a torn read is detectable from a single Get.
func encode(seq, k uint64) uint64 { return seq<<32 | (k & 0xFFFFFFFF) }

// settle waits out the tail of every worker's last group. A worker
// delivers a write's reply just before it releases the reader gate, so a
// read issued the instant that reply arrives can still find the gate held
// and, correctly, fall back to the queue; tests that count fast-path reads
// exactly start from a released gate.
func settle(s *Set) {
	for _, w := range s.workers {
		w.gate.Lock()
		w.gate.Unlock()
	}
}

// TestFastPathEngagesWhenIdle: with no writer running, every read must
// be served on the fast path — zero worker round-trips.
func TestFastPathEngagesWhenIdle(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	for k := uint64(0); k < 64; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	settle(s)
	for k := uint64(0); k < 64; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != encode(0, k) {
			t.Fatalf("get %d = (%#x,%v,%v)", k, v, ok, err)
		}
	}
	st := s.Stats()
	if st.FastGets != 64 || st.Gets != 0 {
		t.Fatalf("idle reads not all fast: fast=%d worker=%d (fallbacks=%d faults=%d)",
			st.FastGets, st.Gets, st.FastFallbacks, st.FastFaults)
	}
	if st.FastHits != 64 {
		t.Fatalf("fast hits = %d, want 64", st.FastHits)
	}
}

// TestFastPathMGetBatch: an all-GET batch takes the fast path (one gate
// hold for the slice), a mixed batch does not.
func TestFastPathMGetBatch(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	for k := uint64(0); k < 32; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]BatchOp, 32)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchGet, K: uint64(i)}
	}
	settle(s)
	res := s.Batch(ops)
	for i, r := range res {
		if r.Err != nil || !r.OK || r.V != encode(0, uint64(i)) {
			t.Fatalf("batch get %d = %+v", i, r)
		}
	}
	st := s.Stats()
	if st.FastGets != 32 {
		t.Fatalf("all-GET batch bypassed the fast path: %+v", st)
	}
	// Mixed slices go to the worker.
	mixed := []BatchOp{{Kind: BatchGet, K: 1}, {Kind: BatchPut, K: 1, V: 7}}
	for _, r := range s.Batch(mixed) {
		if r.Err != nil {
			t.Fatalf("mixed batch: %v", r.Err)
		}
	}
	st2 := s.Stats()
	if st2.FastGets != st.FastGets {
		t.Fatalf("mixed batch took the read fast path: %+v", st2)
	}
}

// gatedKeys is how many keys gatedSet writes; gatedCallers read them.
const gatedKeys = 8

// gatedSet is a one-shard set holding encode(0, k) for every k below
// gatedKeys, and a snapshot of it for the snapshot caller, with the
// writer gate released.
func gatedSet(t *testing.T) (*Set, *SetSnapshot) {
	t.Helper()
	s := newSet(t, t.TempDir(), 1, Options{})
	t.Cleanup(s.Abandon)
	for k := uint64(0); k < gatedKeys; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := s.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sn.Release)
	settle(s)
	return s, sn
}

// checkPairs reports pairs that are not exactly gatedSet's contents.
func checkPairs(pairs []Pair) error {
	if len(pairs) != gatedKeys {
		return fmt.Errorf("%d pairs, want %d", len(pairs), gatedKeys)
	}
	for i, pr := range pairs {
		if pr.K != uint64(i) || pr.V != encode(0, pr.K) {
			return fmt.Errorf("pair %d = %+v", i, pr)
		}
	}
	return nil
}

// gatedCallers are the gated read's four public callers, each making one
// gated read of a gatedSet: read returns the caller's own error, or a
// plain one for a wrong answer. gets tells which counter family the
// caller counts into: fast_* for GETs, scan_* for scan chunks.
var gatedCallers = []struct {
	name  string
	gets  bool
	reads func(w *worker) *readGroup
	read  func(s *Set, sn *SetSnapshot) error
}{
	{"Get", true, func(w *worker) *readGroup { return &w.getReads }, func(s *Set, _ *SetSnapshot) error {
		v, ok, err := s.Get(3)
		if err == nil && (!ok || v != encode(0, 3)) {
			err = fmt.Errorf("get 3 = (%#x, %v)", v, ok)
		}
		return err
	}},
	{"Batch", true, func(w *worker) *readGroup { return &w.getReads }, func(s *Set, _ *SetSnapshot) error {
		ops := make([]BatchOp, gatedKeys)
		for i := range ops {
			ops[i] = BatchOp{Kind: BatchGet, K: uint64(i)}
		}
		for i, r := range s.Batch(ops) {
			if r.Err != nil {
				return r.Err
			}
			if !r.OK || r.V != encode(0, uint64(i)) {
				return fmt.Errorf("batch get %d = %+v", i, r)
			}
		}
		return nil
	}},
	{"Scan", false, func(w *worker) *readGroup { return &w.scanReads }, func(s *Set, _ *SetSnapshot) error {
		pairs, _, _, err := s.Scan(0, ^uint64(0), 100)
		if err != nil {
			return err
		}
		return checkPairs(pairs)
	}},
	{"SnapshotScan", false, func(w *worker) *readGroup { return &w.snapReads }, func(_ *Set, sn *SetSnapshot) error {
		pairs, _, _, err := sn.Scan(0, ^uint64(0), 100)
		if err != nil {
			return err
		}
		return checkPairs(pairs)
	}},
}

// bounces returns a caller family's fallback and fault counts, and the
// other family's.
func bounces(st Stats, gets bool) (fallbacks, faults, otherFallbacks, otherFaults uint64) {
	if gets {
		return st.FastFallbacks, st.FastFaults, st.ScanFallbacks, st.ScanFaults
	}
	return st.ScanFallbacks, st.ScanFaults, st.FastFallbacks, st.FastFaults
}

// TestFastPathFallsBackWhenGateHeld: while the worker side of the gate
// is held (as during a commit, save, scrub, or crash window), every
// gated read must decline — counting one fallback in its own family and
// none in the other — rather than block or race, and the worker must
// still serve the right answer once the gate is released.
func TestFastPathFallsBackWhenGateHeld(t *testing.T) {
	for _, c := range gatedCallers {
		t.Run(c.name, func(t *testing.T) {
			s, sn := gatedSet(t)
			w := s.workers[0]
			w.gate.Lock()
			done := make(chan error, 1)
			go func() { done <- c.read(s, sn) }()
			waitFor(t, 10*time.Second, "the read to bounce off the held gate", func() bool {
				return c.reads(w).fallbacks.Load() > 0
			})
			w.gate.Unlock()
			if err := <-done; err != nil {
				t.Fatalf("read under a held gate: %v", err)
			}
			st := s.Stats()
			fallbacks, faults, otherFallbacks, otherFaults := bounces(st, c.gets)
			if fallbacks != 1 || faults != 0 || otherFallbacks != 0 || otherFaults != 0 {
				t.Fatalf("bounces: own %d/%d, other %d/%d; want one own fallback", fallbacks, faults, otherFallbacks, otherFaults)
			}
			if st.FastGets != 0 || st.FastScans != 0 {
				t.Fatalf("the fast path served a read under a held gate: %+v", st.Counters)
			}
			if served := st.Gets + st.Scans + st.SnapScans; served == 0 {
				t.Fatalf("the worker served nothing: %+v", st.Counters)
			}
		})
	}
}

// TestFastPathFaultFallsBackToRepair: a poisoned page under the
// structure must bounce every gated read to the worker — whose repairing
// path fixes it online — and be counted as a fault of the caller's
// family; the caller still gets the right answer with no error, and the
// next read is fast again.
func TestFastPathFaultFallsBackToRepair(t *testing.T) {
	for _, c := range gatedCallers {
		t.Run(c.name, func(t *testing.T) {
			s, sn := gatedSet(t)
			w := s.workers[0]
			ps := w.st.(*pangolinstore.Store)
			ps.Pool().InjectMediaError(ps.Map().Anchor().Off)
			if err := c.read(s, sn); err != nil {
				t.Fatalf("read across a media error: %v", err)
			}
			st := s.Stats()
			if _, faults, _, _ := bounces(st, c.gets); faults == 0 {
				t.Fatal("the fault was not observed by the fast path")
			}
			settle(s)
			before := c.reads(w).served.Load()
			if err := c.read(s, sn); err != nil {
				t.Fatalf("read after repair: %v", err)
			}
			if c.reads(w).served.Load() == before {
				t.Fatal("the fast path did not resume after online repair")
			}
		})
	}
}

// TestScribbledPointerHealsOnPut: a scribble over the pool word of a
// written hashmap directory slot makes its segment pointer a foreign
// pool's. A PUT routed to that segment follows the pointer unverified
// inside its transaction (VerifyDefault checks a directory only when it is
// opened — Table 4's window), so the transaction's OID check is what meets
// it. That must be typed corruption: the worker runs a heal pass, which
// rebuilds the directory from parity, and the retried PUT succeeds. The
// client sees no error and the repair is counted.
func TestScribbledPointerHealsOnPut(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	defer s.Abandon()
	const k = 7
	if err := s.Put(k, 1); err != nil { // the map's only key: one directory slot written
		t.Fatal(err)
	}
	ps := s.workers[0].st.(*pangolinstore.Store)
	p := ps.Pool()
	anchor, err := p.Get(ps.Map().Anchor())
	if err != nil {
		t.Fatal(err)
	}
	// The anchor starts with the directory's OID; the directory's 16-byte
	// header is followed by one OID per segment.
	le := binary.LittleEndian
	dirOID := pangolin.OID{Pool: le.Uint64(anchor), Off: le.Uint64(anchor[8:])}
	dir, err := p.Get(dirOID)
	if err != nil {
		t.Fatal(err)
	}
	var slot uint64
	for slot = 16; slot < uint64(len(dir)) && le.Uint64(dir[slot:]) == 0; slot += 16 {
	}
	if slot == uint64(len(dir)) {
		t.Fatal("no directory slot written")
	}
	settle(s)
	p.InjectScribble(dirOID.Off+slot, 8, 1)
	if le.Uint64(dir[slot:]) == p.UUID() {
		t.Fatal("scribble left the pool word intact")
	}
	before := s.Stats().BgRepairs
	if err := s.Put(k, 2); err != nil {
		t.Fatalf("put through a scribbled segment pointer: %v", err)
	}
	if v, ok, err := s.Get(k); err != nil || !ok || v != 2 {
		t.Fatalf("get after the healed put = (%d,%v,%v), want 2", v, ok, err)
	}
	if after := s.Stats().BgRepairs; after <= before {
		t.Fatalf("bg_repairs %d -> %d: the heal pass repaired nothing", before, after)
	}
}

// TestGetShuttingDownTyped: after Abandon, Put and every gated read
// report the typed ErrShuttingDown — distinguishable from a real lookup
// error.
func TestGetShuttingDownTyped(t *testing.T) {
	for _, c := range gatedCallers {
		t.Run(c.name, func(t *testing.T) {
			s, sn := gatedSet(t)
			s.Abandon()
			if err := c.read(s, sn); !errors.Is(err, ErrShuttingDown) {
				t.Fatalf("read after Abandon = %v, want ErrShuttingDown", err)
			}
			if err := s.Put(1, 3); !errors.Is(err, ErrShuttingDown) {
				t.Fatalf("Put after Abandon = %v, want ErrShuttingDown", err)
			}
		})
	}
}

// TestReadWriteTorture is the -race reader/writer torture: concurrent
// Get storms (single and MGET-shaped) run against group-committing
// writers, delete churn, and a chaos goroutine cycling Sync, Scrub, and
// CrashSave on the live set. Readers assert values are never torn
// (low bits echo the key) and never regress per key; afterwards the
// snapshot directory must reopen clean. Short mode shrinks the clock;
// the nightly workflow runs the full version.
func TestReadWriteTorture(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 3, Options{QueueLen: 32})

	const keySpace = 512 // writers: [0,256), delete churn: [256,512)
	for k := uint64(0); k < keySpace; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}

	duration := 2 * time.Second
	if testing.Short() {
		duration = 400 * time.Millisecond
	}
	deadline := time.After(duration)
	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}

	var wg sync.WaitGroup
	// Writers: disjoint key ranges, monotonically increasing sequence.
	const writers = 3
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			lo, hi := uint64(wr)*80, uint64(wr)*80+80
			for seq := uint64(1); ; seq++ {
				for k := lo; k < hi; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Put(k, encode(seq, k)); err != nil {
						fail("writer %d put %d: %v", wr, k, err)
						return
					}
				}
			}
		}(wr)
	}
	// Delete churn on its own range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			for k := uint64(256); k < 320; k++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Del(k); err != nil {
					fail("del %d: %v", k, err)
					return
				}
				if err := s.Put(k, encode(seq, k)); err != nil {
					fail("reinsert %d: %v", k, err)
					return
				}
			}
		}
	}()
	// Readers: Get storms with per-key monotonicity checks.
	const readers = 6
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastSeq := make(map[uint64]uint64, keySpace)
			k := uint64(r * 37)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k = (k*2654435761 + 1) % keySpace
				v, ok, err := s.Get(k)
				if err != nil {
					fail("reader %d get %d: %v", r, k, err)
					return
				}
				if !ok {
					continue // delete-churn range
				}
				if v&0xFFFFFFFF != k {
					fail("reader %d: key %d torn value %#x", r, k, v)
					return
				}
				if seq := v >> 32; seq < lastSeq[k] {
					fail("reader %d: key %d regressed seq %d after %d", r, k, seq, lastSeq[k])
					return
				} else {
					lastSeq[k] = seq
				}
			}
		}(r)
	}
	// MGET-shaped reader.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ops := make([]BatchOp, 16)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range ops {
				ops[j] = BatchOp{Kind: BatchGet, K: uint64((i*16 + j) % keySpace)}
			}
			for j, r := range s.Batch(ops) {
				if r.Err != nil {
					fail("mget: %v", r.Err)
					return
				}
				if r.OK && r.V&0xFFFFFFFF != ops[j].K {
					fail("mget: key %d torn value %#x", ops[j].K, r.V)
					return
				}
			}
		}
	}()
	// Chaos: saves, scrubs, crash images against the live set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(1)
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if err := s.Sync(); err != nil {
				fail("sync under load: %v", err)
				return
			}
			if rep, err := s.Scrub(); err != nil || rep.Unrecovered != 0 {
				fail("scrub under load: %+v %v", rep, err)
				return
			}
			if err := s.CrashSave(seed); err != nil {
				fail("crash save under load: %v", err)
				return
			}
			seed++
		}
	}()

	<-deadline
	close(stop)
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}

	st := s.Stats()
	if st.FastGets == 0 {
		t.Fatalf("torture never used the fast path: %+v", st)
	}
	t.Logf("torture: fast=%d worker=%d fallbacks=%d faults=%d puts=%d batches=%d",
		st.FastGets, st.Gets, st.FastFallbacks, st.FastFaults, st.Puts, st.Batches)

	// The last CrashSave images (or the Sync) must reopen cleanly.
	s.Abandon()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torture: %v", err)
	}
	defer s2.Abandon()
	if rep, err := s2.Scrub(); err != nil || rep.Unrecovered != 0 {
		t.Fatalf("scrub after reopen: %+v %v", rep, err)
	}
	for k := uint64(0); k < keySpace; k++ {
		if v, ok, err := s2.Get(k); err != nil {
			t.Fatalf("get %d after reopen: %v", k, err)
		} else if ok && v&0xFFFFFFFF != k {
			t.Fatalf("key %d torn after recovery: %#x", k, v)
		}
	}
}
