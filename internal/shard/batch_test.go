package shard

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
)

// TestBatchMatchesModel drives Batch with mixed GET/PUT/DEL slices and
// checks results and final contents against a volatile model.
func TestBatchMatchesModel(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 3, Options{})
	defer s.Abandon()
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 60; round++ {
		n := 1 + rng.Intn(24)
		ops := make([]BatchOp, n)
		for i := range ops {
			ops[i] = BatchOp{
				Kind: uint8(1 + rng.Intn(3)),
				K:    uint64(rng.Intn(200)),
				V:    rng.Uint64(),
			}
		}
		res := s.Batch(ops)
		if len(res) != n {
			t.Fatalf("round %d: %d results for %d ops", round, len(res), n)
		}
		// A batch observes its own earlier ops in order (each shard's
		// slice is one transaction; ops of one key always land on one
		// shard, so per-key ordering holds).
		for i, op := range ops {
			if res[i].Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, res[i].Err)
			}
			switch op.Kind {
			case BatchPut:
				model[op.K] = op.V
			case BatchDel:
				if _, want := model[op.K]; res[i].OK != want {
					t.Fatalf("round %d DEL %d = %v, want %v", round, op.K, res[i].OK, want)
				}
				delete(model, op.K)
			case BatchGet:
				wantV, want := model[op.K]
				if res[i].OK != want || (want && res[i].V != wantV) {
					t.Fatalf("round %d GET %d = (%d,%v), want (%d,%v)",
						round, op.K, res[i].V, res[i].OK, wantV, want)
				}
			}
		}
	}
	for k, want := range model {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != want {
			t.Fatalf("final get %d = (%d,%v,%v), want (%d,true)", k, v, ok, err, want)
		}
	}
	st := s.Stats()
	if st.Batches == 0 || st.BatchedOps == 0 {
		t.Fatalf("no group commits recorded: %+v", st)
	}
	if st.GroupFallbacks != 0 {
		t.Fatalf("unexpected group fallbacks: %+v", st)
	}
}

// TestBatchBadOpDoesNotPoisonBatchmates sends a batch whose middle op has
// an invalid kind. The group transaction aborts and falls back to per-op
// execution: the bad op reports its error, the others succeed.
func TestBatchBadOpDoesNotPoisonBatchmates(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 1, Options{})
	defer s.Abandon()
	ops := []BatchOp{
		{Kind: BatchPut, K: 1, V: 10},
		{Kind: BatchPut, K: 2, V: 20},
		{Kind: 99, K: 3},
		{Kind: BatchPut, K: 4, V: 40},
		{Kind: BatchGet, K: 1},
	}
	res := s.Batch(ops)
	if res[2].Err == nil {
		t.Fatal("invalid op reported no error")
	}
	for _, i := range []int{0, 1, 3} {
		if res[i].Err != nil {
			t.Fatalf("op %d poisoned by its batchmate: %v", i, res[i].Err)
		}
	}
	if res[4].Err != nil || !res[4].OK || res[4].V != 10 {
		t.Fatalf("GET in fallback batch = %+v", res[4])
	}
	for _, k := range []uint64{1, 2, 4} {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != k*10 {
			t.Fatalf("key %d after fallback = (%d,%v,%v)", k, v, ok, err)
		}
	}
	if st := s.Stats(); st.GroupFallbacks == 0 {
		t.Fatalf("fallback not recorded: %+v", st)
	}
}

// TestOversizedBatchSplitsIntoWindows sends one shard a batch far larger
// than its group cap: it must execute in maxBatch-sized
// transactions (never one giant transaction), produce per-op results for
// everything, and account each chunk as a group commit.
func TestOversizedBatchSplitsIntoWindows(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 1, Options{maxBatch: 8})
	defer s.Abandon()
	const n = 100
	ops := make([]BatchOp, n)
	for i := range ops {
		ops[i] = BatchOp{Kind: BatchPut, K: uint64(i), V: uint64(i) * 3}
	}
	res := s.Batch(ops)
	for i, r := range res {
		if r.Err != nil || !r.OK {
			t.Fatalf("op %d = %+v", i, r)
		}
	}
	for i := uint64(0); i < n; i++ {
		v, ok, err := s.Get(i)
		if err != nil || !ok || v != i*3 {
			t.Fatalf("key %d = (%d,%v,%v)", i, v, ok, err)
		}
	}
	st := s.Stats()
	// 100 puts in windows of 8: 12 full chunks + one of 4, each one
	// transaction.
	if st.Batches != 13 || st.BatchedOps != n {
		t.Fatalf("oversized batch accounting: batches=%d batched_ops=%d, want 13/%d",
			st.Batches, st.BatchedOps, n)
	}
	if st.GroupFallbacks != 0 {
		t.Fatalf("unexpected fallbacks: %+v", st)
	}
}

// TestMigrationGroupFitsLog commits one full maxBatch group of new keys
// right after the default hashmap doubled from 68 to 136 segments, so every
// op of the group migrates an old chain and logs two fresh segments whole:
// the largest log a group writes, well past one lane. It must spill into
// the pool's overflow extents and commit as one group, with no
// "transaction log full" and no per-op fallback.
func TestMigrationGroupFitsLog(t *testing.T) {
	s := newSet(t, t.TempDir(), 1, Options{})
	defer s.Abandon()
	ps := s.workers[0].st.(*pangolinstore.Store)
	p := ps.Pool()
	// The anchor is {Table, Old OID; Cursor, Count uint64}.
	le := binary.LittleEndian
	anchor := func() (old pangolin.OID, cursor uint64) {
		a, err := p.Get(ps.Map().Anchor())
		if err != nil {
			t.Fatal(err)
		}
		return pangolin.OID{Pool: le.Uint64(a[16:]), Off: le.Uint64(a[24:])}, le.Uint64(a[32:])
	}
	ops := make([]BatchOp, 0, 64)
	k := uint64(0)
	for ; k < 3000; k++ { // under the 68-segment table's growth point
		if ops = append(ops, BatchOp{Kind: BatchPut, K: k, V: k}); len(ops) == cap(ops) || k == 2999 {
			for i, r := range s.Batch(ops) {
				if r.Err != nil {
					t.Fatalf("preload op %d: %v", i, r.Err)
				}
			}
			ops = ops[:0]
		}
	}
	for old, _ := anchor(); old.IsNil(); old, _ = anchor() {
		if k == 4000 {
			t.Fatal("no growth by 4,000 keys")
		}
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
		k++
	}
	old, _ := anchor()
	dir, err := p.Get(old)
	if err != nil {
		t.Fatal(err)
	}
	if segs := le.Uint64(dir); segs < 64 {
		t.Fatalf("old table has %d segments, fewer than a group's 64 migration steps", segs)
	}
	before, logged := s.Stats(), p.Stats().LoggedBytes.Load()
	for i := range cap(ops) {
		ops = append(ops, BatchOp{Kind: BatchPut, K: k + uint64(i), V: uint64(i)})
	}
	for i, r := range s.Batch(ops) {
		if r.Err != nil {
			t.Fatalf("op %d of the migrating group: %v", i, r.Err)
		}
	}
	after := s.Stats()
	if after.Batches != before.Batches+1 || after.GroupFallbacks != before.GroupFallbacks {
		t.Fatalf("batches %d -> %d, fallbacks %d -> %d: want one group and no fallback",
			before.Batches, after.Batches, before.GroupFallbacks, after.GroupFallbacks)
	}
	if _, cursor := anchor(); cursor != uint64(cap(ops)) {
		t.Fatalf("cursor %d after the group, want %d migration steps", cursor, cap(ops))
	}
	lane := pangolin.DefaultGeometry().LaneSize
	if n := p.Stats().LoggedBytes.Load() - logged; n <= lane {
		t.Fatalf("the group logged %d bytes, within one %d-byte lane: overflow not exercised", n, lane)
	} else {
		t.Logf("the group logged %d bytes (lane %d)", n, lane)
	}
	for _, op := range ops {
		if v, ok, err := s.Get(op.K); err != nil || !ok || v != op.V {
			t.Fatalf("key %d = (%d,%v,%v), want %d", op.K, v, ok, err, op.V)
		}
	}
}

// TestGroupCommitUnderConcurrency hammers a small set from many
// goroutines mixing single ops and batches on disjoint key ranges, so
// queues actually fill and workers drain groups; everything must agree
// with the per-goroutine model and group commits must happen.
func TestGroupCommitUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 2, Options{queueLen: 256})
	defer s.Abandon()
	const goroutines = 8
	rounds := 60
	if testing.Short() {
		rounds = 20
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 1_000_000
			model := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for r := 0; r < rounds; r++ {
				if rng.Intn(2) == 0 {
					n := 1 + rng.Intn(16)
					ops := make([]BatchOp, n)
					for i := range ops {
						ops[i] = BatchOp{
							Kind: uint8(1 + rng.Intn(3)),
							K:    base + uint64(rng.Intn(48)),
							V:    rng.Uint64(),
						}
					}
					res := s.Batch(ops)
					for i, op := range ops {
						if res[i].Err != nil {
							t.Errorf("g%d batch op: %v", g, res[i].Err)
							return
						}
						switch op.Kind {
						case BatchPut:
							model[op.K] = op.V
						case BatchDel:
							delete(model, op.K)
						case BatchGet:
							wantV, want := model[op.K]
							if res[i].OK != want || (want && res[i].V != wantV) {
								t.Errorf("g%d GET %d = (%d,%v), want (%d,%v)",
									g, op.K, res[i].V, res[i].OK, wantV, want)
								return
							}
						}
					}
				} else {
					k := base + uint64(rng.Intn(48))
					v := rng.Uint64()
					if err := s.Put(k, v); err != nil {
						t.Errorf("g%d put: %v", g, err)
						return
					}
					model[k] = v
				}
			}
			for k, want := range model {
				v, ok, err := s.Get(k)
				if err != nil || !ok || v != want {
					t.Errorf("g%d final get %d = (%d,%v,%v)", g, k, v, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Errors != 0 {
		t.Fatalf("stats report %d errors", st.Errors)
	}
}

// TestCrashDuringBatchLoadRecovers crashes the set while batch writers
// are mid-flight; every shard must recover, scrub clean, and hold every
// batch the test observed as committed before the crash.
func TestCrashDuringBatchLoadRecovers(t *testing.T) {
	dir := t.TempDir()
	s := newSet(t, dir, 2, Options{})
	var committed sync.Map
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := uint64(g) << 32; ; k += 8 {
				select {
				case <-stop:
					return
				default:
				}
				ops := make([]BatchOp, 8)
				for i := range ops {
					ops[i] = BatchOp{Kind: BatchPut, K: k + uint64(i), V: (k + uint64(i)) ^ 0xBEEF}
				}
				res := s.Batch(ops)
				for i, r := range res {
					if r.Err != nil {
						t.Errorf("batch put: %v", r.Err)
						return
					}
					committed.Store(ops[i].K, ops[i].V)
				}
			}
		}(g)
	}
	for {
		st := s.Stats()
		if st.Puts >= 400 {
			break
		}
	}
	// Everything committed by now is durable and must survive the crash
	// images; in-flight batches may or may not make it — but never
	// partially per shard.
	frozen := map[uint64]uint64{}
	committed.Range(func(k, v any) bool {
		frozen[k.(uint64)] = v.(uint64)
		return true
	})
	if err := s.CrashSave(13); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	s.Abandon()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Abandon()
	rep, err := s2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("scrub after mid-batch-load crash: %d unrecoverable (%+v)", rep.Unrecovered, rep)
	}
	for k, want := range frozen {
		v, ok, err := s2.Get(k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !ok || v != want {
			t.Fatalf("pre-crash key %d = (%d,%v), want (%d,true): committed batch lost", k, v, ok, want)
		}
	}
}

// TestStopUnderLoadTinyQueue is the shutdown race regression test: with a
// length-1 queue, senders routinely block on a full channel while stop()
// runs. The old code held the read lock across the blocking send, so
// stop's write lock could deadlock the set. Run under -race this also
// checks the close/send discipline. Every in-flight op must get an
// answer: success or a clean "closed" error — never a hang or panic.
func TestStopUnderLoadTinyQueue(t *testing.T) {
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		s := newSet(t, dir, 1, Options{queueLen: 1})
		const senders = 16
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					k := uint64(g)<<16 | uint64(i)
					if err := s.Put(k, k); err != nil {
						// Only the typed shutdown error is acceptable.
						if !errors.Is(err, ErrShuttingDown) {
							t.Errorf("put after stop: %v", err)
						}
						return
					}
				}
			}(g)
		}
		close(start)
		// Stop while senders are mid-flight; Abandon must return.
		s.Abandon()
		wg.Wait()
		// A second stop is a no-op, not a hang.
		s.Abandon()
	}
}

// keysOn returns the n smallest keys at or above from that s routes to
// shard sh.
func keysOn(s *Set, sh, n int, from uint64) []uint64 {
	var ks []uint64
	for k := from; len(ks) < n; k++ {
		if s.ShardOf(k) == sh {
			ks = append(ks, k)
		}
	}
	return ks
}

// interleave takes one key from each list in turn, so consecutive ops
// land on different shards.
func interleave(lists ...[]uint64) []uint64 {
	var out []uint64
	for i := 0; ; i++ {
		took := false
		for _, l := range lists {
			if i < len(l) {
				out = append(out, l[i])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// TestBatchPartition: Batch groups its ops by shard and puts every
// result back at its op's request position — for batches over zero, one
// and all shards, with repeated keys, on the read fast path and on the
// worker (mixed slices, and all-GET slices bounced off a held gate) —
// and a stopped shard answers each of its ops with ErrShuttingDown.
func TestBatchPartition(t *testing.T) {
	s := newSet(t, t.TempDir(), 3, Options{})
	defer s.Abandon()
	type batch struct {
		ops  []BatchOp
		want []BatchResult
	}
	check := func(what string, b batch) {
		t.Helper()
		res := s.Batch(b.ops)
		if len(res) != len(b.want) {
			t.Fatalf("%s: %d results for %d ops", what, len(res), len(b.want))
		}
		for i := range b.want {
			if res[i] != b.want[i] {
				t.Fatalf("%s: op %d (%+v) = %+v, want %+v", what, i, b.ops[i], res[i], b.want[i])
			}
		}
	}
	puts := func(ks []uint64) batch {
		b := batch{make([]BatchOp, len(ks)), make([]BatchResult, len(ks))}
		for i, k := range ks {
			b.ops[i], b.want[i] = BatchOp{Kind: BatchPut, K: k, V: k * 7}, BatchResult{OK: true}
		}
		return b
	}
	// gets reads ks; keys in absent miss, every other key holds k*7.
	gets := func(ks []uint64, absent map[uint64]bool) batch {
		b := batch{make([]BatchOp, len(ks)), make([]BatchResult, len(ks))}
		for i, k := range ks {
			b.ops[i] = BatchOp{Kind: BatchGet, K: k}
			if !absent[k] {
				b.want[i] = BatchResult{V: k * 7, OK: true}
			}
		}
		return b
	}

	check("zero shards", batch{})

	one := keysOn(s, 1, 5, 1)
	check("one shard, puts", puts(one))
	check("one shard, gets", gets(one, nil))

	all := interleave(keysOn(s, 0, 6, 1000), keysOn(s, 1, 3, 1000), keysOn(s, 2, 5, 1000))
	check("all shards, puts", puts(all))
	missing := keysOn(s, 2, 2, 5000)
	absent := map[uint64]bool{missing[0]: true, missing[1]: true}
	mixedKeys := append([]uint64{missing[0]}, all...)
	mixedKeys = append(mixedKeys, missing[1], all[0], all[0])
	check("all shards, gets", gets(mixedKeys, absent))

	// Repeated keys in a mixed slice: each shard's slice keeps request
	// order, so every GET sees the ops before it.
	a, b, c := keysOn(s, 0, 1, 9000)[0], keysOn(s, 1, 1, 9000)[0], keysOn(s, 2, 1, 9000)[0]
	check("repeated keys", batch{[]BatchOp{
		{Kind: BatchPut, K: a, V: 1}, {Kind: BatchGet, K: b}, {Kind: BatchPut, K: c, V: 3},
		{Kind: BatchGet, K: a}, {Kind: BatchPut, K: a, V: 2}, {Kind: BatchPut, K: b, V: 5},
		{Kind: BatchGet, K: a}, {Kind: BatchDel, K: a}, {Kind: BatchGet, K: b},
		{Kind: BatchGet, K: a}, {Kind: BatchDel, K: a}, {Kind: BatchGet, K: c},
	}, []BatchResult{
		{OK: true}, {}, {OK: true},
		{V: 1, OK: true}, {OK: true}, {OK: true},
		{V: 2, OK: true}, {OK: true}, {V: 5, OK: true},
		{}, {}, {V: 3, OK: true},
	}})

	// An all-GET slice that bounces off a held gate goes to the worker,
	// which answers once the gate is free.
	w := s.workers[0]
	w.gate.Lock()
	done := make(chan []BatchResult, 1)
	bounced := gets(all, nil)
	go func() { done <- s.Batch(bounced.ops) }()
	waitFor(t, 10*time.Second, "the GET slice to bounce off the held gate", func() bool {
		return w.getReads.fallbacks.Load() > 0
	})
	w.gate.Unlock()
	if res := <-done; !slices.Equal(res, bounced.want) {
		t.Fatalf("gets through the worker = %+v, want %+v", res, bounced.want)
	}

	// A stopped shard refuses its ops, on the read path and the worker
	// path alike; the other shards answer theirs.
	s.workers[1].stop()
	for _, kind := range []uint8{BatchGet, BatchPut} {
		ops := make([]BatchOp, len(all))
		for i, k := range all {
			ops[i] = BatchOp{Kind: kind, K: k, V: k * 7}
		}
		for i, r := range s.Batch(ops) {
			stopped := s.ShardOf(all[i]) == 1
			switch {
			case stopped && !errors.Is(r.Err, ErrShuttingDown):
				t.Fatalf("kind %d op %d on the stopped shard: %+v, want ErrShuttingDown", kind, i, r)
			case !stopped && (r.Err != nil || !r.OK):
				t.Fatalf("kind %d op %d on a live shard: %+v", kind, i, r)
			}
		}
	}
}

// TestBatchConcurrentCallers: concurrent Batch calls each get their own
// results, so no partition scratch is shared between two calls (run
// under -race).
func TestBatchConcurrentCallers(t *testing.T) {
	s := newSet(t, t.TempDir(), 3, Options{})
	defer s.Abandon()
	const callers, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				n := 1 + rng.Intn(40)
				ops := make([]BatchOp, n)
				for i := range ops {
					// Disjoint keys per caller; the value names the round.
					ops[i] = BatchOp{Kind: BatchPut, K: uint64(g)<<32 | uint64(rng.Intn(64)), V: uint64(r)<<8 | uint64(i)}
				}
				for i, res := range s.Batch(ops) {
					if res.Err != nil || !res.OK {
						t.Errorf("caller %d round %d put %d: %+v", g, r, i, res)
						return
					}
				}
				last := map[uint64]uint64{}
				for _, op := range ops {
					last[op.K] = op.V
				}
				for i := range ops {
					ops[i].Kind = BatchGet
				}
				for i, res := range s.Batch(ops) {
					if want := last[ops[i].K]; res.Err != nil || !res.OK || res.V != want {
						t.Errorf("caller %d round %d get %d of key %#x: %+v, want %d", g, r, i, ops[i].K, res, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
