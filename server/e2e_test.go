package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/shard"
)

// TestEndToEndCrashUnderBatchLoad crashes the server over TCP while
// batch clients are mid-MPUT and the background scrubber is stepping
// every 2ms, so the crash images land with batch transactions in flight
// and scrub steps interleaved between them: every batch acknowledged
// before the crash snapshot must survive recovery whole (each shard
// slice is one transaction), and every shard file must pass the
// pglpool-check pass.
func TestEndToEndCrashUnderBatchLoad(t *testing.T) {
	dir := t.TempDir()
	const clients = 8
	const shards = 4
	const batch = 16

	set, err := shard.Create(dir, shards, shard.Options{ScrubInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	addr := srv.Addr().String()

	var committed sync.Map
	var acked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(t.Context(), addr)
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			defer c.Close()
			keys := make([]uint64, batch)
			vals := make([]uint64, batch)
			for k := uint64(id) << 32; ; k += batch {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					keys[i] = k + uint64(i)
					vals[i] = (k + uint64(i)) ^ 0xF00D
				}
				if err := c.MPut(keys, vals); err != nil {
					return // the crash tears connections down mid-flight
				}
				for i := range keys {
					committed.Store(keys[i], vals[i])
				}
				acked.Add(batch)
			}
		}(id)
	}
	for deadline := time.Now().Add(30 * time.Second); acked.Load() < 2000 || set.ScrubHealth().ScrubSteps == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("never reached 2000 acked ops (%d) with scrub steps running (%+v)", acked.Load(), set.ScrubHealth())
		}
		time.Sleep(time.Millisecond)
	}
	// Everything acknowledged by now is committed on its shards and must
	// survive the crash images; batches still in flight may or may not.
	frozen := map[uint64]uint64{}
	committed.Range(func(k, v any) bool {
		frozen[k.(uint64)] = v.(uint64)
		return true
	})
	cc, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Crash(77); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Crashed():
	case <-time.After(10 * time.Second):
		t.Fatal("Crashed() not signalled")
	}
	cc.Close()
	close(stop)
	srv.Shutdown()
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	set.Abandon() // die without syncing

	set2, err := shard.Open(dir, shard.Options{})
	if err != nil {
		t.Fatalf("recovery open after crash-under-batch-load: %v", err)
	}
	defer set2.Abandon()
	rep, err := set2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("scrub: %d unrecoverable (%+v)", rep.Unrecovered, rep)
	}
	for k, want := range frozen {
		v, ok, err := set2.Get(k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !ok || v != want {
			t.Fatalf("acked batch key %d = (%d,%v), want (%d,true): committed batch lost", k, v, ok, want)
		}
	}
	// Every shard file passes the pglpool-check pass.
	for i := 0; i < shards; i++ {
		pool, err := pangolin.LoadFile(pangolin.ShardFile(dir, i), pangolin.DefaultConfig())
		if err != nil {
			t.Fatalf("pglpool-check shard %d: open: %v", i, err)
		}
		rep, err := pool.Scrub()
		if err != nil {
			t.Fatalf("pglpool-check shard %d: scrub: %v", i, err)
		}
		if rep.Unrecovered != 0 {
			t.Fatalf("pglpool-check shard %d: %d unrecoverable (%+v)", i, rep.Unrecovered, rep)
		}
		pool.Close()
	}
}

// TestEndToEndConcurrentClientsThenCrash is the acceptance gauntlet: 32
// concurrent TCP clients drive a 4-shard server with a mixed workload,
// each checking against its own model over a private key range; then the
// server takes a simulated machine crash, every shard pool is reopened
// from its crash image, a fresh server is booted on the recovered set, and
// the clients verify their full models through it. Finally every shard
// file passes the same verify-and-repair pass `pglpool check` runs.
func TestEndToEndConcurrentClientsThenCrash(t *testing.T) {
	dir := t.TempDir()
	const clients = 32
	const shards = 4
	opsPerClient := 400
	if testing.Short() {
		opsPerClient = 120
	}

	set, err := shard.Create(dir, shards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	addr := srv.Addr().String()

	// Phase 1: concurrent mixed load, one model per client over a
	// disjoint key range.
	models := make([]map[uint64]uint64, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(t.Context(), addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			model := map[uint64]uint64{}
			models[id] = model
			base := uint64(id) << 32
			rng := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < opsPerClient; i++ {
				k := base + uint64(rng.Intn(256))
				switch rng.Intn(4) {
				case 0, 1: // 50% put
					v := rng.Uint64()
					if err := c.Put(k, v); err != nil {
						errs <- fmt.Errorf("client %d put: %w", id, err)
						return
					}
					model[k] = v
				case 2: // 25% get
					v, ok, err := c.Get(k)
					if err != nil {
						errs <- fmt.Errorf("client %d get: %w", id, err)
						return
					}
					wantV, want := model[k]
					if ok != want || (ok && v != wantV) {
						errs <- fmt.Errorf("client %d: key %d = (%d,%v), want (%d,%v)", id, k, v, ok, wantV, want)
						return
					}
				case 3: // 25% del
					ok, err := c.Del(k)
					if err != nil {
						errs <- fmt.Errorf("client %d del: %w", id, err)
						return
					}
					if _, want := model[k]; ok != want {
						errs <- fmt.Errorf("client %d: del %d = %v, want %v", id, k, ok, want)
						return
					}
					delete(model, k)
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The server must report a healthy spread: every shard saw traffic
	// and no shard errored.
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("server stats report %d errors: %+v", st.Errors, st)
	}
	for _, sh := range st.Shards {
		if sh.Puts == 0 {
			t.Fatalf("shard %d saw no puts — partitioning broken? %+v", sh.Index, st)
		}
	}

	// Phase 2: simulated machine crash. All clients are quiescent, so
	// everything in the models is committed and must survive.
	if err := c.Crash(2019); err != nil {
		t.Fatal(err)
	}
	// The server signals Crashed() after flushing the response, so the
	// close can trail c.Crash returning by a scheduling beat.
	select {
	case <-srv.Crashed():
	case <-time.After(10 * time.Second):
		t.Fatal("Crashed() not signalled after OpCrash")
	}
	c.Close()
	srv.Shutdown()
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	set.Abandon() // die without syncing: the crash images are the truth

	// Phase 3: recover every shard and re-verify through a fresh server.
	set2, err := shard.Open(dir, shard.Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if set2.Len() != shards {
		t.Fatalf("recovered %d shards, want %d", set2.Len(), shards)
	}
	rep, err := set2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("scrub after crash recovery: %d unrecoverable (%+v)", rep.Unrecovered, rep)
	}
	srv2 := New(set2)
	if err := srv2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	serve2Done := make(chan error, 1)
	go func() { serve2Done <- srv2.Serve() }()
	addr2 := srv2.Addr().String()

	errs2 := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(t.Context(), addr2)
			if err != nil {
				errs2 <- err
				return
			}
			defer c.Close()
			for k, want := range models[id] {
				v, ok, err := c.Get(k)
				if err != nil {
					errs2 <- fmt.Errorf("client %d get %d after crash: %w", id, k, err)
					return
				}
				if !ok || v != want {
					errs2 <- fmt.Errorf("client %d: key %d = (%d,%v) after crash, want (%d,true): committed data lost", id, k, v, ok, want)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs2)
	for err := range errs2 {
		t.Fatal(err)
	}
	srv2.Shutdown()
	if err := <-serve2Done; err != nil {
		t.Fatal(err)
	}
	if err := set2.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 4: every shard file passes the pglpool-check pass — open with
	// recovery, scrub, nothing unrecoverable.
	for i := 0; i < shards; i++ {
		pool, err := pangolin.LoadFile(pangolin.ShardFile(dir, i), pangolin.DefaultConfig())
		if err != nil {
			t.Fatalf("pglpool-check shard %d: open: %v", i, err)
		}
		rep, err := pool.Scrub()
		if err != nil {
			t.Fatalf("pglpool-check shard %d: scrub: %v", i, err)
		}
		if rep.Unrecovered != 0 {
			t.Fatalf("pglpool-check shard %d: %d unrecoverable (%+v)", i, rep.Unrecovered, rep)
		}
		pool.Close()
	}
}
