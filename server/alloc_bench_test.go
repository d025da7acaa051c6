package server

import (
	"context"
	"testing"

	"github.com/pangolin-go/pangolin/internal/shard"
)

// The allocation-budget benchmarks: every number these report is gated
// by make bench-alloc against bench/alloc_budgets.txt, so a hot-path
// change that starts allocating again fails CI rather than silently
// burning the margin the paper's §4 leaves for integrity work. They
// run client and server in one process, so allocs/op is the whole
// round trip: encode, frame, dispatch, shard commit, reply, decode.

// benchServerAddr boots a server over a fresh 2-shard set.
func benchServerAddr(b *testing.B) string {
	b.Helper()
	set, err := shard.Create(b.TempDir(), 2, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	b.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
		set.Abandon()
	})
	return srv.Addr().String()
}

const benchKeys = 4096

// benchPreload fills the key space so GETs hit. It writes every key twice:
// a shard whose table doubled during the first pass finishes migrating it
// during the second, so the timed loop measures the steady state rather
// than the tail of a growth.
func benchPreload(b *testing.B, c *Client) {
	b.Helper()
	ks := make([]uint64, 0, 512)
	vs := make([]uint64, 0, 512)
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < benchKeys; k += 512 {
			ks, vs = ks[:0], vs[:0]
			for i := uint64(0); i < 512; i++ {
				ks = append(ks, k+i)
				vs = append(vs, (k+i)*3)
			}
			if err := c.MPut(ks, vs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAllocPipelinedGetPut is THE gated round-trip number: a
// depth-256 pipelined v2 connection alternating GETs and PUTs, chunks
// of one window submitted asynchronously and drained together. The
// acceptance bar for the pooled-buffer work is allocs/op here ≥ 40%
// below the pre-PR baseline recorded in bench/alloc_budgets.txt.
func BenchmarkAllocPipelinedGetPut(b *testing.B) {
	addr := benchServerAddr(b)
	c, err := Dial(context.Background(), addr, WithPipelineDepth(256))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	benchPreload(b, c)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		p := c.Pipeline(ctx)
		n := min(256, b.N-i)
		for j := 0; j < n; j++ {
			k := uint64(i+j) % benchKeys
			if (i+j)%2 == 0 {
				p.Get(k)
			} else {
				p.Put(k, uint64(i+j))
			}
		}
		if err := p.Wait(); err != nil {
			b.Fatal(err)
		}
		i += n
	}
}

// BenchmarkAllocBatchFrame is the multi-shard verb's round trip: one
// connection to a logstore-backed 2-shard set, alternating 16-key MPUT
// and MGET frames, so each frame is partitioned across both shards and
// the log engine encodes a record per put. One iteration is one frame.
func BenchmarkAllocBatchFrame(b *testing.B) {
	set, err := shard.Create(b.TempDir(), 2, shard.Options{Backend: "logstore"})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	b.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			b.Errorf("Serve: %v", err)
		}
		set.Abandon()
	})
	c, err := Dial(context.Background(), srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const frame = 16
	keys := make([]uint64, frame)
	vals := make([]uint64, frame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range keys {
			keys[j] = uint64((i/2*frame + j) % benchKeys)
			vals[j] = uint64(i)
		}
		if i%2 == 0 {
			err = c.MPut(keys, vals)
		} else {
			_, _, err = c.MGet(keys)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}
