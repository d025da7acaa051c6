package server

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/internal/store"
)

// TestSnapScanPinnedOverTCP: a paginated SNAPSCAN observes exactly the
// committed state at its first page, no matter what commits land while
// it pages — the wire-level form of the pinned-generation contract.
func TestSnapScanPinnedOverTCP(t *testing.T) {
	for _, backend := range store.Backends() {
		t.Run(backend, func(t *testing.T) { testSnapScanPinnedOverTCP(t, backend) })
	}
}

func testSnapScanPinnedOverTCP(t *testing.T, backend string) {
	addr, _ := startMaintServer(t, shard.Options{Structure: "btree", Backend: backend})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 300
	for k := uint64(0); k < n; k++ {
		if err := c.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	sc := c.SnapScan(0, ^uint64(0))
	first, err := sc.Next(32) // pins the snapshot
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite, delete, and insert behind the scan's back.
	for k := uint64(0); k < n; k += 2 {
		if err := c.Put(k, 999_999); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k < n; k += 2 {
		if _, err := c.Del(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Put(n+10, 1); err != nil {
		t.Fatal(err)
	}
	got := first
	for !sc.Done() {
		page, err := sc.Next(32)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page...)
	}
	if len(got) != n {
		t.Fatalf("snapshot scan yielded %d pairs, want %d", len(got), n)
	}
	for i, p := range got {
		if p.K != uint64(i) || p.V != p.K*3 {
			t.Fatalf("pair %d = (%d,%d), want the pinned (%d,%d)", i, p.K, p.V, i, uint64(i)*3)
		}
	}
	// The terminal page released the pins.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotPins != 0 {
		t.Fatalf("pins after a completed scan = %d, want 0", st.SnapshotPins)
	}
	if st.SnapScans == 0 {
		t.Fatal("snap_scans counter stayed zero")
	}
}

// TestSnapScanConnCloseReleasesPins: an abandoned scan must not leak its
// pins past its connection — teardown releases them without a worker
// round-trip.
func TestSnapScanConnCloseReleasesPins(t *testing.T) {
	addr, set := startMaintServer(t, shard.Options{Structure: "btree"})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 200; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	sc := c.SnapScan(0, ^uint64(0))
	if _, err := sc.Next(8); err != nil { // more pages remain: pins held
		t.Fatal(err)
	}
	if sc.Done() {
		t.Fatal("an 8-pair page over 200 keys claimed the scan was done")
	}
	if pins := set.Stats().SnapshotPins; pins == 0 {
		t.Fatal("no pins held mid-scan")
	}
	c.Close()
	waitNoPins(t, set)
}

// TestSnapScanCursorModeAndCap pins the cursor contract on the wire: a
// continuation cursor without its snapshot id, or an id nobody opened,
// is refused with the typed cursor-mode status — never answered with a
// page of the other consistency mode — and a connection cannot hold
// more than MaxConnSnapshots scans open at once.
func TestSnapScanCursorModeAndCap(t *testing.T) {
	addr, _ := startMaintServer(t, shard.Options{Structure: "btree"})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := uint64(0); k < 400; k++ {
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	// Hand-rolled frames (the pipelined client cannot emit these shapes
	// by construction). Each refusal echoes its seq and leaves the
	// connection serving.
	r := dialRaw(t, addr)
	seq := uint64(100)
	rawStatus := func(req Request) uint8 {
		t.Helper()
		seq++
		payload, err := EncodeRequestSeq(nil, seq, req)
		if err != nil {
			t.Fatal(err)
		}
		got, status := r.roundTrip(payload)
		if got != seq {
			t.Fatalf("reply echoed seq %d, want %d", got, seq)
		}
		return status
	}
	// Continuation cursor with no snapshot id: which snapshot is this?
	if s := rawStatus(Request{Op: OpSnapScan, Key: 0, Val: ^uint64(0), Limit: 10, Cursor: 5}); s != StatusCursorMode {
		t.Fatalf("cursor-without-snapid status = %d, want StatusCursorMode", s)
	}
	// A snapshot id nobody opened (e.g. a live scan's cursor smuggled
	// into snapshot mode, or a stale id from another connection).
	if s := rawStatus(Request{Op: OpSnapScan, Key: 0, Val: ^uint64(0), Limit: 10, Cursor: 5, SnapID: 424242}); s != StatusCursorMode {
		t.Fatalf("unknown-snapid status = %d, want StatusCursorMode", s)
	}
	if s := rawStatus(Request{Op: OpGet, Key: 7}); s != StatusOK {
		t.Fatalf("GET after cursor-mode refusals: status %d", s)
	}
	// The typed error round-trips through the client's status decoding.
	if err := statusError(StatusCursorMode, []byte("x")); !errors.Is(err, ErrCursorMode) {
		t.Fatalf("StatusCursorMode decoded to %v, want ErrCursorMode", err)
	}

	// Cap: MaxConnSnapshots scans in flight on one connection, then the
	// next open is refused until one finishes.
	scanners := make([]*SnapScanner, MaxConnSnapshots)
	for i := range scanners {
		scanners[i] = c.SnapScan(0, ^uint64(0))
		if _, err := scanners[i].Next(4); err != nil {
			t.Fatalf("scanner %d: %v", i, err)
		}
	}
	over := c.SnapScan(0, ^uint64(0))
	if _, err := over.Next(4); err == nil || !strings.Contains(err.Error(), "snapshots") {
		t.Fatalf("scan #%d opened past the cap (err=%v)", MaxConnSnapshots+1, err)
	}
	// Draining one scan frees its slot.
	for !scanners[0].Done() {
		if _, err := scanners[0].Next(0); err != nil {
			t.Fatal(err)
		}
	}
	fresh := c.SnapScan(0, ^uint64(0))
	if _, err := fresh.Next(4); err != nil {
		t.Fatalf("open after freeing a slot: %v", err)
	}
}

// waitNoPins polls until the set holds no snapshot pins: a closed
// connection's pins fall when the server notices the close.
func waitNoPins(t *testing.T, set *shard.Set) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for set.Stats().SnapshotPins != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d snapshot pins still held", set.Stats().SnapshotPins)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// putRange loads keys [0, n) with v = k through MPUT batches.
func putRange(t *testing.T, c *Client, n uint64) {
	t.Helper()
	ks := make([]uint64, 0, MaxBatchOps)
	for k := uint64(0); k < n; k++ {
		ks = append(ks, k)
		if len(ks) == MaxBatchOps || k == n-1 {
			if err := c.MPut(ks, ks); err != nil {
				t.Fatal(err)
			}
			ks = ks[:0]
		}
	}
}

// TestBackupEarlyStop: fn returning false ends Backup cleanly, and
// dropping its connection releases the pins it held mid-stream.
func TestBackupEarlyStop(t *testing.T) {
	addr, set := startMaintServer(t, shard.Options{Structure: "btree"})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putRange(t, c, MaxScanPairs+100) // two pages: the first stops mid-scan
	calls := 0
	if err := Backup(t.Context(), addr, func(k, v uint64) bool {
		calls++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times after returning false", calls)
	}
	waitNoPins(t, set)
}

// TestBackupCancelled: cancelling ctx mid-stream fails Backup with an
// error wrapping context.Canceled and leaks no pins.
func TestBackupCancelled(t *testing.T) {
	addr, set := startMaintServer(t, shard.Options{Structure: "btree"})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putRange(t, c, MaxScanPairs+100)
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	err = Backup(ctx, addr, func(k, v uint64) bool {
		cancel()
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Backup returned %v, want context.Canceled", err)
	}
	waitNoPins(t, set)
}

// TestBackupUnderWritesRestores: Backup taken while writers commit must
// stream one generation-consistent image — every record satisfies the
// writers' per-key invariant, no key twice, ascending — and replaying
// it into a fresh set reproduces exactly that image, which then scrubs
// clean: backup under writes, restore, scrub-clean, equal pair counts.
func TestBackupUnderWritesRestores(t *testing.T) {
	for _, backend := range store.Backends() {
		t.Run(backend, func(t *testing.T) { testBackupUnderWritesRestores(t, backend) })
	}
}

func testBackupUnderWritesRestores(t *testing.T, backend string) {
	addr, set := startMaintServer(t, shard.Options{Structure: "btree", Backend: backend})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const keys = 600
	for k := uint64(0); k < keys; k++ {
		if err := c.Put(k, k^0xF00D); err != nil {
			t.Fatal(err)
		}
	}
	// Writers keep churning the same keyspace; every present key always
	// maps to k^0xF00D, so any consistent image satisfies that invariant
	// while an inconsistent smear cannot be detected by it — consistency
	// itself is proven by the shard/store suites; here the stream's
	// shape and the restore round-trip are under test.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wc, err := Dial(context.Background(), addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer wc.Close()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Uint64() % keys
				if rng.Intn(4) == 0 {
					if _, err := wc.Del(k); err != nil {
						t.Error(err)
						return
					}
				} else if err := wc.Put(k, k^0xF00D); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	image := make(map[uint64]uint64)
	var lastKey uint64
	first := true
	err = Backup(context.Background(), addr, func(k, v uint64) bool {
		if _, dup := image[k]; dup {
			t.Errorf("backup streamed key %d twice", k)
			return false
		}
		if !first && k <= lastKey {
			t.Errorf("backup stream out of order: %d after %d", k, lastKey)
			return false
		}
		if v != k^0xF00D {
			t.Errorf("backup pair (%d,%d) violates the writer invariant", k, v)
			return false
		}
		first, lastKey = false, k
		image[k] = v
		return true
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(image) == 0 {
		t.Fatal("backup streamed nothing")
	}
	if pins := set.Stats().SnapshotPins; pins != 0 {
		t.Fatalf("backup left %d pins held", pins)
	}

	// Restore into a fresh set and verify it IS the image.
	raddr, rset := startMaintServer(t, shard.Options{Structure: "btree", Backend: backend})
	rc, err := Dial(t.Context(), raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ks := make([]uint64, 0, MaxBatchOps)
	vs := make([]uint64, 0, MaxBatchOps)
	flush := func() {
		if len(ks) == 0 {
			return
		}
		if err := rc.MPut(ks, vs); err != nil {
			t.Fatal(err)
		}
		ks, vs = ks[:0], vs[:0]
	}
	for k, v := range image {
		ks, vs = append(ks, k), append(vs, v)
		if len(ks) == MaxBatchOps {
			flush()
		}
	}
	flush()
	if err := rc.Sync(); err != nil {
		t.Fatal(err)
	}
	restored := 0
	if err := rc.ScanAll(0, ^uint64(0), func(k, v uint64) bool {
		want, ok := image[k]
		if !ok || v != want {
			t.Errorf("restored pair (%d,%d) not in the backup image (want %d, present %v)", k, v, want, ok)
		}
		restored++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if restored != len(image) {
		t.Fatalf("restored set has %d pairs, image has %d", restored, len(image))
	}
	// The restored shards scrub clean, the check `pglpool check` runs on
	// each shard file.
	rep, err := rset.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecovered != 0 || rep.PagesUnrecovered != 0 {
		t.Fatalf("restored set scrubbed dirty: %+v", rep)
	}
}
