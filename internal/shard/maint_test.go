package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin"
)

// Tests for the background maintenance subsystem: the scheduler's
// idle-driven scrub steps, healing of injected corruption under live
// traffic with zero client-visible errors, backpressure accounting, and
// the -race torture that runs the scheduler against commits, saves,
// scans, crash images, and full-pass SCRUBs.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMaintStepsWhenIdle: with the scheduler on and no traffic, scrub
// steps accrue and every shard completes a full pass — the idle-driven
// half of the interval-and-idle contract.
func TestMaintStepsWhenIdle(t *testing.T) {
	s := newSet(t, t.TempDir(), 3, Options{ScrubInterval: time.Millisecond})
	defer s.Abandon()
	for k := uint64(0); k < 128; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "a full pass on every shard", func() bool {
		return s.Stats().LastFullPass > 0 // aggregate = oldest shard's
	})
	st := s.Stats()
	if st.ScrubSteps == 0 {
		t.Fatalf("full pass without steps: %+v", st)
	}
	for _, sh := range st.Shards {
		if sh.LastFullPass == 0 {
			t.Fatalf("shard %d never completed a pass: %+v", sh.Index, sh)
		}
	}
}

// TestMaintHealsInjectedFaults is the headline acceptance test:
// bit-flips injected between group commits are healed by the background
// scrubber while concurrent GET/PUT traffic observes ZERO errors — the
// reads that race the corruption either see verified-clean data or fall
// back to the worker's repairing path, never an error — and with the
// traffic stopped, freshly injected faults are healed by the scheduler
// alone (bg_repairs > 0), proving the subsystem works without a read
// ever touching the corruption.
func TestMaintHealsInjectedFaults(t *testing.T) {
	s := newSet(t, t.TempDir(), 3, Options{ScrubInterval: time.Millisecond})
	defer s.Abandon()
	const keySpace = 1 << 10
	for k := uint64(0); k < keySpace; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = 300 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var clientErrs atomic.Uint64
	// Traffic: readers and a writer racing the injections and the
	// scrubber. Any error a client op observes fails the test.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := uint64(g) * 17
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k = (k*2654435761 + 1) % keySpace
				if g == 0 && i%8 == 0 {
					if err := s.Put(k, k^uint64(i)); err != nil {
						clientErrs.Add(1)
						t.Errorf("put %d: %v", k, err)
						return
					}
					continue
				}
				if _, _, err := s.Get(k); err != nil {
					clientErrs.Add(1)
					t.Errorf("get %d: %v", k, err)
					return
				}
			}
		}(g)
	}
	// Injector: corrupt live objects between group commits.
	injected := 0
	deadline := time.Now().Add(duration)
	seed := int64(0)
	for time.Now().Before(deadline) {
		n, _, err := s.InjectFaults(seed, 2)
		if err != nil {
			t.Fatalf("inject: %v", err)
		}
		injected += n
		seed += 2
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if clientErrs.Load() != 0 {
		t.Fatalf("%d client ops observed errors", clientErrs.Load())
	}
	if injected == 0 {
		t.Fatal("no faults injected")
	}

	// Traffic stopped: now only the scheduler can heal. Inject fresh
	// faults and require bg_repairs to INCREASE — repairs made during
	// the load cannot mask a scheduler that wedged since.
	base := s.Stats().BgRepairs
	if _, _, err := s.InjectFaults(seed, 4); err != nil {
		t.Fatalf("post-traffic inject: %v", err)
	}
	waitFor(t, 10*time.Second, "bg_repairs to increase", func() bool {
		return s.Stats().BgRepairs > base
	})

	// The fixpoint: a full on-demand pass finds the pool clean.
	waitFor(t, 10*time.Second, "pool to scrub clean", func() bool {
		rep, err := s.Scrub()
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		return rep.Unrecovered == 0 && rep.BadObjects == 0
	})
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ChecksumsVerified {
		t.Fatalf("MLPC scrub must verify checksums: %+v", rep)
	}
	// And the data is intact.
	for k := uint64(0); k < keySpace; k += 7 {
		if _, ok, err := s.Get(k); err != nil || !ok {
			t.Fatalf("get %d after healing = (%v, %v)", k, ok, err)
		}
	}
}

// TestMaintSchedulerAliveUnderLoad: under sustained write pressure the
// scheduler keeps running — every tick either lands a step or counts a
// backoff; it never silently wedges — and traffic always wins (client
// ops never error or block on scrub work).
func TestMaintSchedulerAliveUnderLoad(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{ScrubInterval: time.Millisecond, queueLen: 16})
	defer s.Abandon()
	for k := uint64(0); k < 256; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	duration := 800 * time.Millisecond
	if testing.Short() {
		duration = 200 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := uint64(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k = k*2654435761 + 1
				if err := s.Put(k%256, k); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	st := s.Stats()
	if st.ScrubSteps == 0 && st.ScrubBackoffs == 0 {
		t.Fatalf("scheduler made no attempts under load: %+v", st)
	}
}

// TestSetScrubMergedReport: the set-wide Scrub merges per-shard reports
// via ScrubReport.Add — repairs from any shard survive the merge, and
// the checksum claim is mode-honest.
func TestSetScrubMergedReport(t *testing.T) {
	s := newSet(t, t.TempDir(), 3, Options{})
	defer s.Abandon()
	for k := uint64(0); k < 512; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.InjectFaults(2, 6); err != nil { // even+odd seeds: scribbles and poison
		t.Fatal(err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fixed() == 0 {
		t.Fatalf("merged report lost the repairs: %+v", rep)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("injected faults unrecoverable: %+v", rep)
	}
	if !rep.ChecksumsVerified || rep.Objects == 0 {
		t.Fatalf("MLPC set scrub must verify checksums over objects: %+v", rep)
	}

	// A checksum-less mode says so in the merged report.
	s2 := newSet(t, t.TempDir(), 2, Options{Pangolin: pangolin.Config{Mode: pangolin.ModePangolinMLP}})
	defer s2.Abandon()
	if err := s2.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ChecksumsVerified {
		t.Fatalf("pangolin-mlp scrub claimed checksum coverage: %+v", rep2)
	}
}

// TestMaintTorture is the -race gauntlet: the maintenance scheduler
// racing group commits, reads, scans, saves, crash images, fault
// injections, and concurrent full-pass SCRUBs. Nothing may error, no
// read may observe a torn or stale value, and the set must still scrub
// clean at the end.
func TestMaintTorture(t *testing.T) {
	s := newSet(t, t.TempDir(), 3, Options{ScrubInterval: time.Millisecond, queueLen: 32})
	defer s.Abandon()
	const keySpace = 512
	for k := uint64(0); k < keySpace; k++ {
		if err := s.Put(k, encode(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	duration := 2 * time.Second
	if testing.Short() {
		duration = 400 * time.Millisecond
	}
	stop := make(chan struct{})
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	var wg sync.WaitGroup
	// Writers on disjoint ranges with monotone sequences.
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			lo, hi := uint64(wr)*128, uint64(wr)*128+128
			for seq := uint64(1); ; seq++ {
				for k := lo; k < hi; k++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Put(k, encode(seq, k)); err != nil {
						fail("writer put %d: %v", k, err)
						return
					}
				}
			}
		}(wr)
	}
	// Readers with monotonicity checks.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := make(map[uint64]uint64)
			k := uint64(r) * 31
			for {
				select {
				case <-stop:
					return
				default:
				}
				k = (k*2654435761 + 1) % keySpace
				v, ok, err := s.Get(k)
				if err != nil {
					fail("get %d: %v", k, err)
					return
				}
				if ok {
					if v&0xFFFFFFFF != k&0xFFFFFFFF {
						fail("torn value for %d: %#x", k, v)
						return
					}
					if seq := v >> 32; seq < last[k] {
						fail("key %d regressed %d -> %d", k, last[k], seq)
						return
					} else {
						last[k] = seq
					}
				}
			}
		}(r)
	}
	// Scanner.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pairs, _, _, err := s.Scan(0, keySpace, 64)
			if err != nil {
				fail("scan: %v", err)
				return
			}
			for i := 1; i < len(pairs); i++ {
				if pairs[i].K <= pairs[i-1].K {
					fail("scan order violation at %d", i)
					return
				}
			}
		}
	}()
	// Maintenance antagonists: injections, saves, crash images, and
	// concurrent full passes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(100)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				if _, _, err := s.InjectFaults(seed, 1); err != nil {
					fail("inject: %v", err)
					return
				}
				seed++
			case 1:
				if err := s.Sync(); err != nil {
					fail("sync: %v", err)
					return
				}
			case 2:
				if err := s.CrashSave(seed); err != nil {
					fail("crash save: %v", err)
					return
				}
			case 3:
				if _, err := s.Scrub(); err != nil {
					fail("scrub: %v", err)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	if failed.Load() {
		return
	}
	// Fixpoint check: the pool scrubs clean once the dust settles.
	waitFor(t, 10*time.Second, "clean scrub after torture", func() bool {
		rep, err := s.Scrub()
		if err != nil {
			t.Fatalf("final scrub: %v", err)
		}
		return rep.Unrecovered == 0 && rep.BadObjects == 0
	})
}

// TestScrubCoalesces: concurrent full-pass requests against the set
// complete (per-shard they share a pass) and both get a usable report.
func TestScrubCoalesces(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	defer s.Abandon()
	for k := uint64(0); k < 256; k++ {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	reports := make([]pangolin.ScrubReport, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = s.Scrub()
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatalf("scrub %d: %v", i, errs[i])
		}
		if !reports[i].ChecksumsVerified {
			t.Fatalf("scrub %d report unverified: %+v", i, reports[i])
		}
	}
}

// TestMaintStopsCleanly: Abandon with the scheduler mid-step neither
// deadlocks nor leaks; double-stop is safe via Close after Abandon
// paths in callers.
func TestMaintStopsCleanly(t *testing.T) {
	for i := 0; i < 10; i++ {
		s := newSet(t, t.TempDir(), 2, Options{ScrubInterval: 100 * time.Microsecond})
		for k := uint64(0); k < 64; k++ {
			if err := s.Put(k, k); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(time.Duration(i) * time.Millisecond)
		s.Abandon()
	}
}
