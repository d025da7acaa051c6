package server

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/shard"
)

// The multi-shard verbs run on per-connection handler goroutines. These
// tests pin down their lifecycle (none outlives its connection) and
// their isolation (a verb stuck on one shard does not hold up another
// verb on the same connection).

// holdShard parks sh's worker goroutine inside a completion callback
// until the returned release is called, so every request queued on that
// shard waits. release is idempotent and also runs at cleanup, before
// the server's own teardown.
func holdShard(t *testing.T, set *shard.Set, sh int) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	unblock := make(chan struct{})
	set.SubmitPut(keysOnShard(set, sh, 1)[0], 1, func(shard.BatchResult) {
		close(entered)
		<-unblock
	})
	<-entered
	var once sync.Once
	release = func() { once.Do(func() { close(unblock) }) }
	t.Cleanup(release)
	return release
}

// keysOnShard returns the n smallest keys that set routes to shard sh.
func keysOnShard(set *shard.Set, sh, n int) []uint64 {
	var ks []uint64
	for k := uint64(1); len(ks) < n; k++ {
		if set.ShardOf(k) == sh {
			ks = append(ks, k)
		}
	}
	return ks
}

// waitFor polls cond under a deadline, failing with every goroutine's
// stack, since what it waits for is goroutines coming or going.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("timed out waiting for %s (%d goroutines):\n%s", what, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitGoroutines waits until at most base goroutines run.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	waitFor(t, "the goroutine count to fall back to its baseline", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// batchTraffic runs MPUT, MGET, SCAN and STATS frames from several
// goroutines at once on c, so the connection needs more than one
// handler.
func batchTraffic(t *testing.T, c *Client) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ks := []uint64{uint64(g), uint64(g + 100), uint64(g + 200)}
			for i := 0; i < 20; i++ {
				if err := c.MPut(ks, ks); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.MGet(ks); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := c.Scan(0, 1000, 10, 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Stats(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHandlersExitWithConnection: every handler goroutine a connection
// started is gone once the connection is — after a clean close, after
// a drop with batch frames still in flight, and after Server.Shutdown.
func TestHandlersExitWithConnection(t *testing.T) {
	t.Run("clean_close", func(t *testing.T) {
		_, addr := startServer(t, t.TempDir(), 2)
		base := runtime.NumGoroutine()
		c, err := Dial(t.Context(), addr)
		if err != nil {
			t.Fatal(err)
		}
		batchTraffic(t, c)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	})

	t.Run("dropped_in_flight", func(t *testing.T) {
		srv, addr := startServer(t, t.TempDir(), 2)
		base := runtime.NumGoroutine()
		release := holdShard(t, srv.set, 0)
		r := dialRaw(t, addr)
		// Every MPUT waits on the held shard, each on its own handler.
		const frames = 8
		keys := keysOnShard(srv.set, 0, 4)
		for seq := uint64(1); seq <= frames; seq++ {
			p, err := EncodeRequestSeq(nil, seq, Request{Op: OpMPut, Keys: keys, Vals: keys})
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteFrame(r.conn, p); err != nil {
				t.Fatal(err)
			}
		}
		// base counts the server and set; the raw connection adds its
		// reader and writer, and each stuck frame a handler.
		waitFor(t, "a handler per stuck frame", func() bool {
			return runtime.NumGoroutine() >= base+2+frames
		})
		r.conn.Close()
		release()
		waitGoroutines(t, base)
	})

	t.Run("shutdown", func(t *testing.T) {
		base := runtime.NumGoroutine()
		set, err := shard.Create(t.TempDir(), 2, shard.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(set)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		c, err := Dial(t.Context(), srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		batchTraffic(t, c)
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		c.Close()
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	})
}

// TestHandlersNoHeadOfLineBlocking: a SYNC waiting on a held shard must
// not delay an MGET to the other shard that follows it on the same
// connection — the MGET gets a handler of its own.
func TestHandlersNoHeadOfLineBlocking(t *testing.T) {
	srv, addr := startServer(t, t.TempDir(), 2)
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := keysOnShard(srv.set, 1, 16)
	if err := c.MPut(keys, keys); err != nil {
		t.Fatal(err)
	}
	release := holdShard(t, srv.set, 0)
	// One connection writes frames in submission order, so the server
	// dispatches the SYNC before it reads the MGET.
	syncOp := c.submit(t.Context(), Request{Op: OpSync})
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	status, body, err := c.wait(ctx, c.submit(ctx, Request{Op: OpMGet, Keys: keys}))
	if err != nil {
		t.Fatalf("MGET behind a SYNC stuck on the other shard: %v", err)
	}
	if status != StatusOK || len(body) != 9*len(keys) {
		t.Fatalf("MGET answered status %d with %d bytes", status, len(body))
	}
	select {
	case <-syncOp.done:
		t.Fatal("SYNC finished while its shard was held")
	default:
	}
	release()
	if status, _, err := c.wait(t.Context(), syncOp); err != nil || status != StatusOK {
		t.Fatalf("SYNC after release: status %d, %v", status, err)
	}
}
