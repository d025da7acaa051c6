package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestFastPathFallsBackWhenGateHeld: while the worker side of the gate
// is held (as during a commit, save, scrub, or crash window), fastGet
// must decline — counting a fallback — rather than block or race.
func TestFastPathFallsBackWhenGateHeld(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	if err := s.Put(1, encode(0, 1)); err != nil {
		t.Fatal(err)
	}
	w := s.workers[0]
	w.gate.Lock()
	if _, _, _, served := w.fastGet(1); served {
		w.gate.Unlock()
		t.Fatal("fastGet served a read while the writer gate was held")
	}
	if _, ok := w.fastGetBatch([]BatchOp{{Kind: BatchGet, K: 1}}); ok {
		w.gate.Unlock()
		t.Fatal("fastGetBatch served a slice while the writer gate was held")
	}
	w.gate.Unlock()
	if n := w.fastFallbacks.Load(); n != 2 {
		t.Fatalf("fallbacks = %d, want 2", n)
	}
	// After release the fast path resumes.
	if v, ok, err := s.Get(1); err != nil || !ok || v != encode(0, 1) {
		t.Fatalf("get after gate release = (%#x,%v,%v)", v, ok, err)
	}
	if w.fastGets.Load() == 0 {
		t.Fatal("fast path did not resume after gate release")
	}
}

// TestFastPathFaultFallsBackToRepair: a poisoned page under the
// structure must bounce the read to the worker — whose repairing path
// fixes it online — and be counted as a fast fault; the caller still
// gets the right answer with no error.
func TestFastPathFaultFallsBackToRepair(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	for k := uint64(0); k < 8; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	w := s.workers[0]
	ps := w.st.(*pangolinstore.Store)
	ps.Pool().InjectMediaError(ps.Map().Anchor().Off)
	settle(s)
	if v, ok, err := s.Get(3); err != nil || !ok || v != encode(0, 3) {
		t.Fatalf("get across media error = (%#x,%v,%v)", v, ok, err)
	}
	if w.fastFaults.Load() == 0 {
		t.Fatal("fault was not observed by the fast path")
	}
	// Repaired: subsequent reads are fast again.
	settle(s)
	before := w.fastGets.Load()
	if v, ok, err := s.Get(3); err != nil || !ok || v != encode(0, 3) {
		t.Fatalf("get after repair = (%#x,%v,%v)", v, ok, err)
	}
	if w.fastGets.Load() != before+1 {
		t.Fatal("fast path did not resume after online repair")
	}
}

// TestGetShuttingDownTyped: after Abandon, Get (and Batch) report the
// typed ErrShuttingDown — distinguishable from a real lookup error.
func TestGetShuttingDownTyped(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	if err := s.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	if _, _, err := s.Get(1); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Get after Abandon = %v, want ErrShuttingDown", err)
	}
	if err := s.Put(1, 3); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Put after Abandon = %v, want ErrShuttingDown", err)
	}
	for _, r := range s.Batch([]BatchOp{{Kind: BatchGet, K: 1}}) {
		if !errors.Is(r.Err, ErrShuttingDown) {
			t.Fatalf("Batch after Abandon = %v, want ErrShuttingDown", r.Err)
		}
	}
}

// TestSerialReadsOption: with SerialReads every read goes through the
// worker; the fast-path counters stay zero.
func TestSerialReadsOption(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{SerialReads: true})
	for k := uint64(0); k < 32; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := s.Get(k); err != nil || !ok || v != k {
			t.Fatalf("serial get %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
	st := s.Stats()
	if st.FastGets != 0 || st.FastFallbacks != 0 {
		t.Fatalf("serial mode used the fast path: %+v", st)
	}
	if st.Gets != 32 {
		t.Fatalf("serial gets = %d, want 32", st.Gets)
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
