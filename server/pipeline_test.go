package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/shard"
)

func TestV2RequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, Key: 42},
		{Op: OpPut, Key: 1, Val: ^uint64(0)},
		{Op: OpDel, Key: 0},
		{Op: OpStats},
		{Op: OpScrub, Key: 1},
		{Op: OpMGet, Keys: []uint64{1, 2, ^uint64(0)}},
		{Op: OpMPut, Keys: []uint64{9, 8}, Vals: []uint64{90, 80}},
		{Op: OpScan, Key: 10, Val: ^uint64(0), Limit: 512, Cursor: 99},
		{Op: OpHello, Key: HelloMagic, Val: ProtocolV2, Limit: 128},
	}
	for i, want := range cases {
		seq := uint64(i) * 0x0101010101010101
		p, err := EncodeRequestSeq(nil, seq, want)
		if err != nil {
			t.Fatal(err)
		}
		gotSeq, got, err := DecodeRequestSeq(p)
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if gotSeq != seq || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip seq %d %+v → seq %d %+v", seq, want, gotSeq, got)
		}
	}
}

func TestV2ResponseRoundTrip(t *testing.T) {
	for _, body := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xCD}, 4096)} {
		p := EncodeResponseSeq(nil, 77, StatusShutdown, body)
		seq, status, got, err := DecodeResponseSeq(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 77 || status != StatusShutdown || !bytes.Equal(got, body) {
			t.Fatalf("response round trip: seq %d status %d body %x", seq, status, got)
		}
	}
}

func TestDecodeV2RejectsShortPayloads(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {1, 2, 3, 4, 5, 6, 7}} {
		if _, _, err := DecodeRequestSeq(p); err == nil {
			t.Errorf("DecodeRequestSeq(%x) accepted a payload with no seq", p)
		}
	}
	// A seq with no request behind it is an error too — but a decodable
	// one (the seq can be echoed with an ERR status).
	if _, _, err := DecodeRequestSeq([]byte{0, 0, 0, 0, 0, 0, 0, 9}); err == nil {
		t.Error("DecodeRequestSeq accepted seq-only payload")
	}
	for _, p := range [][]byte{nil, {}, {1, 2, 3, 4, 5, 6, 7, 8}} {
		if _, _, _, err := DecodeResponseSeq(p); err == nil {
			t.Errorf("DecodeResponseSeq(%x) accepted a short payload", p)
		}
	}
}

func TestDecodeHello(t *testing.T) {
	good, _ := EncodeRequest(nil, Request{Op: OpHello, Key: HelloMagic, Val: ProtocolV2, Limit: 64})
	if v, w, ok := DecodeHello(good); !ok || v != ProtocolV2 || w != 64 {
		t.Fatalf("DecodeHello(good) = (%d,%d,%v)", v, w, ok)
	}
	noMagic, _ := EncodeRequest(nil, Request{Op: OpHello, Key: 12345, Val: ProtocolV2, Limit: 64})
	get, _ := EncodeRequest(nil, Request{Op: OpGet, Key: HelloMagic})
	for _, p := range [][]byte{noMagic, get, nil, {OpHello}} {
		if _, _, ok := DecodeHello(p); ok {
			t.Errorf("DecodeHello(%x) accepted a non-HELLO", p)
		}
	}
}

func TestGrantWindow(t *testing.T) {
	for req, want := range map[uint64]int{
		0:             DefaultWindow,
		1:             1,
		128:           128,
		MaxWindow:     MaxWindow,
		MaxWindow + 1: MaxWindow,
		1 << 40:       MaxWindow,
	} {
		if got := GrantWindow(req); got != want {
			t.Errorf("GrantWindow(%d) = %d, want %d", req, got, want)
		}
	}
}

// FuzzDecodeV2 throws arbitrary payloads at the wire decoders, HELLO's
// included: they must never panic, and anything they accept must
// re-encode to the identical bytes (the wire forms are canonical).
func FuzzDecodeV2(f *testing.F) {
	req, _ := EncodeRequestSeq(nil, 7, Request{Op: OpPut, Key: 1, Val: 2})
	f.Add(req)
	batch, _ := EncodeRequestSeq(nil, 9, Request{Op: OpMPut, Keys: []uint64{1, 2}, Vals: []uint64{3, 4}})
	f.Add(batch)
	hello, _ := EncodeRequest(nil, Request{Op: OpHello, Key: HelloMagic, Val: ProtocolV2, Limit: 8})
	f.Add(hello)
	f.Add(EncodeResponseSeq(nil, 3, StatusCorrupt, []byte("bad object")))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, p []byte) {
		if seq, req, err := DecodeRequestSeq(p); err == nil {
			enc, err := EncodeRequestSeq(nil, seq, req)
			if err != nil {
				t.Fatalf("re-encoding decoded request %+v: %v", req, err)
			}
			if !bytes.Equal(enc, p) {
				t.Fatalf("request not canonical: %x → %+v → %x", p, req, enc)
			}
		}
		if seq, status, body, err := DecodeResponseSeq(p); err == nil {
			if enc := EncodeResponseSeq(nil, seq, status, body); !bytes.Equal(enc, p) {
				t.Fatalf("response not canonical: %x → %x", p, enc)
			}
		}
		// DecodeHello is the only gate between a socket and the request
		// loop: whatever it admits is exactly a magic-carrying HELLO.
		if version, window, ok := DecodeHello(p); ok {
			if len(p) < 9 || p[0] != OpHello || binary.BigEndian.Uint64(p[1:]) != HelloMagic {
				t.Fatalf("DecodeHello admitted %x without HelloMagic", p)
			}
			enc, err := EncodeRequest(nil, Request{Op: OpHello, Key: HelloMagic, Val: version, Limit: window})
			if err != nil || !bytes.Equal(enc, p) {
				t.Fatalf("HELLO not canonical: %x → %x (%v)", p, enc, err)
			}
		}
	})
}

func TestHelloNegotiation(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)

	// Default dial negotiates v2 with the server's default window.
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Window() != DefaultWindow {
		t.Fatalf("default dial: window %d", c.Window())
	}
	c.Close()

	// A requested depth is granted as-is within bounds, clamped above.
	c, err = Dial(t.Context(), addr, WithPipelineDepth(8))
	if err != nil {
		t.Fatal(err)
	}
	if c.Window() != 8 {
		t.Fatalf("depth 8 granted window %d", c.Window())
	}
	c.Close()
	c, err = Dial(t.Context(), addr, WithPipelineDepth(MaxWindow+500))
	if err != nil {
		t.Fatal(err)
	}
	if c.Window() != MaxWindow {
		t.Fatalf("oversized depth granted window %d, want clamp to %d", c.Window(), MaxWindow)
	}
	c.Close()

	// An unsupported version is rejected with an ERR reply, not served.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bad, _ := EncodeRequest(nil, Request{Op: OpHello, Key: HelloMagic, Val: 3})
	if err := WriteFrame(conn, bad); err != nil {
		t.Fatal(err)
	}
	p, err := ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	if status, _, _ := DecodeResponse(p); status != StatusErr {
		t.Fatalf("HELLO v3 answered with status %d, want StatusErr", status)
	}
}

// TestFirstFrameMustBeHello: a connection whose first frame is anything
// but a HELLO gets exactly one seqless ERR and is closed, and the server
// keeps accepting fresh connections.
func TestFirstFrameMustBeHello(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)
	put, _ := EncodeRequest(nil, Request{Op: OpPut, Key: 6, Val: 60})
	noMagic, _ := EncodeRequest(nil, Request{Op: OpHello, Key: 999, Val: ProtocolV2})
	for _, tc := range []struct {
		name  string
		first []byte
	}{
		{"plain PUT", put},
		{"op 13 without magic", noMagic},
		{"op 15", []byte{15}},
		{"empty payload", []byte{}},
		{"garbage", []byte{0xDE, 0xAD, 0xBE}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			if err := WriteFrame(conn, tc.first); err != nil {
				t.Fatal(err)
			}
			br := bufio.NewReader(conn)
			p, err := ReadFrame(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			if status, body, _ := DecodeResponse(p); status != StatusErr || !bytes.Contains(body, []byte("HELLO")) {
				t.Fatalf("first frame answered %x, want a seqless ERR naming HELLO", p)
			}
			if _, err := ReadFrame(br, nil); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: %v, want EOF", err)
			}
			c, err := Dial(t.Context(), addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Put(1, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAsyncFuturesAndPipeline(t *testing.T) {
	_, addr := startServer(t, t.TempDir(), 2)
	c, err := Dial(t.Context(), addr, WithPipelineDepth(64))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := t.Context()

	// Async futures resolve independently and out of submission order.
	pf := c.PutAsync(ctx, 1, 10)
	gf := c.GetAsync(ctx, 2) // absent
	df := c.DelAsync(ctx, 3) // absent
	if err := pf.Result(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := gf.Result(ctx); err != nil || ok {
		t.Fatalf("async get absent = (%v,%v)", ok, err)
	}
	if present, err := df.Result(ctx); err != nil || present {
		t.Fatalf("async del absent = (%v,%v)", present, err)
	}
	gf = c.GetAsync(ctx, 1)
	if v, ok, err := gf.Result(ctx); err != nil || !ok || v != 10 {
		t.Fatalf("async get 1 = (%d,%v,%v)", v, ok, err)
	}

	// A pipeline fills the window back-to-back and Wait collects all.
	const n = 300 // > window: submissions backpressure through the window
	p := c.Pipeline(ctx)
	for i := uint64(0); i < n; i++ {
		p.Put(1000+i, i*3)
	}
	if p.Len() != n {
		t.Fatalf("pipeline len %d", p.Len())
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	rp := c.Pipeline(ctx)
	gets := make([]*GetFuture, n)
	for i := uint64(0); i < n; i++ {
		gets[i] = rp.Get(1000 + i)
	}
	if err := rp.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, f := range gets {
		v, ok, err := f.Result(ctx)
		if err != nil || !ok || v != uint64(i)*3 {
			t.Fatalf("pipelined get %d = (%d,%v,%v), want %d", i, v, ok, err, i*3)
		}
	}
	if c.Err() != nil {
		t.Fatalf("healthy client reports Err %v", c.Err())
	}
}

// startFakeV2Server accepts one connection, performs the HELLO
// handshake, and answers every request with respond — a harness for
// client-side behaviors a real server can't produce on demand.
func startFakeV2Server(t *testing.T, respond func(seq uint64, req Request) (uint64, uint8, []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		first, err := ReadFrame(br, nil)
		if err != nil {
			return
		}
		_, window, ok := DecodeHello(first)
		if !ok {
			return
		}
		ack := appendU64(appendU64(nil, ProtocolV2), uint64(GrantWindow(window)))
		if WriteFrame(bw, EncodeResponse(nil, StatusOK, ack)) != nil || bw.Flush() != nil {
			return
		}
		for {
			p, err := ReadFrame(br, nil)
			if err != nil {
				return
			}
			seq, req, err := DecodeRequestSeq(p)
			if err != nil {
				return
			}
			rseq, status, body := respond(seq, req)
			if WriteFrame(bw, EncodeResponseSeq(nil, rseq, status, body)) != nil || bw.Flush() != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestTypedErrorsAcrossWire: v2 status bytes rebuild the in-process
// error taxonomy on the client — errors.Is for shutdown, the pangolin
// corruption/poison predicates for media faults.
func TestTypedErrorsAcrossWire(t *testing.T) {
	statuses := make(chan uint8, 3)
	statuses <- StatusShutdown
	statuses <- StatusCorrupt
	statuses <- StatusPoison
	addr := startFakeV2Server(t, func(seq uint64, req Request) (uint64, uint8, []byte) {
		return seq, <-statuses, []byte("injected failure")
	})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(1, 1); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("StatusShutdown → %v, want ErrShuttingDown", err)
	}
	if err := c.Put(2, 2); !pangolin.IsCorruption(err) {
		t.Fatalf("StatusCorrupt → %v, want IsCorruption", err)
	}
	if err := c.Put(3, 3); !pangolin.IsPoison(err) {
		t.Fatalf("StatusPoison → %v, want IsPoison", err)
	}
	if c.Err() != nil {
		t.Fatalf("typed per-op failures are not fatal, but Err = %v", c.Err())
	}
}

// TestOutOfOrderReplies drives the raw wire from the server side: read
// both GETs, reply to the second before the first, and check each
// future resolves to its own value — sequence matching proven directly.
func TestOutOfOrderReplies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			bw := bufio.NewWriter(conn)
			first, err := ReadFrame(br, nil)
			if err != nil {
				return err
			}
			if _, _, ok := DecodeHello(first); !ok {
				return fmt.Errorf("first frame is not a HELLO")
			}
			ack := appendU64(appendU64(nil, ProtocolV2), uint64(DefaultWindow))
			if err := WriteFrame(bw, EncodeResponse(nil, StatusOK, ack)); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			var reqs []struct {
				seq uint64
				req Request
			}
			for len(reqs) < 2 {
				p, err := ReadFrame(br, nil)
				if err != nil {
					return err
				}
				seq, req, err := DecodeRequestSeq(p)
				if err != nil {
					return err
				}
				reqs = append(reqs, struct {
					seq uint64
					req Request
				}{seq, req})
			}
			// Reply in reverse order, each with its own key×10.
			for i := len(reqs) - 1; i >= 0; i-- {
				body := appendU64(nil, reqs[i].req.Key*10)
				if err := WriteFrame(bw, EncodeResponseSeq(nil, reqs[i].seq, StatusOK, body)); err != nil {
					return err
				}
			}
			return bw.Flush()
		}()
	}()

	c, err := Dial(t.Context(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := t.Context()
	f1 := c.GetAsync(ctx, 7)
	f2 := c.GetAsync(ctx, 9)
	v2, ok2, err2 := f2.Result(ctx)
	v1, ok1, err1 := f1.Result(ctx)
	if err1 != nil || err2 != nil || !ok1 || !ok2 {
		t.Fatalf("results: (%d,%v,%v) (%d,%v,%v)", v1, ok1, err1, v2, ok2, err2)
	}
	if v1 != 70 || v2 != 90 {
		t.Fatalf("out-of-order replies mismatched: got %d and %d, want 70 and 90", v1, v2)
	}
	if err := <-serverErr; err != nil {
		t.Fatal(err)
	}
}

// TestUnknownSeqIsFatal: a reply whose sequence number matches no
// in-flight op is a protocol violation; the client must die with a
// diagnosable Err rather than mis-deliver.
func TestUnknownSeqIsFatal(t *testing.T) {
	addr := startFakeV2Server(t, func(seq uint64, req Request) (uint64, uint8, []byte) {
		return seq + 12345, StatusOK, nil
	})
	c, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(1, 1); err == nil {
		t.Fatal("mismatched seq reply answered a Put")
	}
	if c.Err() == nil {
		t.Fatal("client survived an unknown-seq reply")
	}
}

// TestShutdownErrorIsTyped: ops submitted while the shard set is
// shutting down resolve with ErrShuttingDown across the wire — typed,
// never silently dropped.
func TestShutdownErrorIsTyped(t *testing.T) {
	dir := t.TempDir()
	set, err := shard.Create(dir, 2, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		srv.Shutdown()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	c, err := Dial(t.Context(), srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}
	err = c.Put(2, 2)
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("put during shutdown = %v, want ErrShuttingDown", err)
	}
}

// TestPipelinedTorture is the concurrency gauntlet for the v2 path: many
// goroutines pipeline GET/PUT/DEL/SCAN at depth 128 on one shared
// connection while a second connection runs full scrub passes, then the
// run takes a mid-stream CRASH and teardown. Every operation must
// resolve — to its own reply (checked against a per-goroutine model:
// one cross-delivered sequence number shows up as a wrong value) or to
// an error once the teardown starts — and the crash images must
// recover scrub-clean.
func TestPipelinedTorture(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	const workers = 12
	target := uint64(6000)
	if testing.Short() {
		target = 1500
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

	c, err := Dial(t.Context(), addr, WithPipelineDepth(128))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Background scrubber on its own connection: full passes interleave
	// with the pipelined load.
	sc, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	var maintWG sync.WaitGroup
	stop := make(chan struct{})
	maintWG.Add(1)
	go func() {
		defer maintWG.Done()
		defer sc.Close()
		for {
			select {
			case <-stop:
				return
			case <-time.After(25 * time.Millisecond):
			}
			if _, err := sc.Scrub(true); err != nil {
				return // teardown killed the connection
			}
		}
	}()

	var acked atomic.Uint64
	var tearingDown atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for id := 0; id < workers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := uint64(id+1) << 32
			rng := rand.New(rand.NewSource(int64(id)))
			model := map[uint64]uint64{}
			report := func(err error) {
				// Errors are legal only once the teardown begins; before
				// that, every op must succeed.
				if !tearingDown.Load() {
					errs <- fmt.Errorf("worker %d: %w", id, err)
				}
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := base + uint64(rng.Intn(192))
				switch rng.Intn(8) {
				case 0, 1, 2: // put
					v := rng.Uint64()
					if err := c.Put(k, v); err != nil {
						report(err)
						return
					}
					model[k] = v
				case 3, 4, 5: // get, checked against the model
					v, ok, err := c.Get(k)
					if err != nil {
						report(err)
						return
					}
					wantV, want := model[k]
					if ok != want || (ok && v != wantV) {
						errs <- fmt.Errorf("worker %d: get %d = (%d,%v), want (%d,%v) — reply misdelivered?",
							id, k, v, ok, wantV, want)
						return
					}
				case 6: // del
					ok, err := c.Del(k)
					if err != nil {
						report(err)
						return
					}
					if _, want := model[k]; ok != want {
						errs <- fmt.Errorf("worker %d: del %d = %v, want %v", id, k, ok, want)
						return
					}
					delete(model, k)
				case 7: // scan this worker's own range: ordered, bounded
					pairs, _, _, err := c.Scan(base, base+191, 64, 0)
					if err != nil {
						report(err)
						return
					}
					for i, pr := range pairs {
						if pr.K < base || pr.K > base+191 || (i > 0 && pr.K <= pairs[i-1].K) {
							errs <- fmt.Errorf("worker %d: scan violation at %d: %+v", id, i, pr)
							return
						}
						if want, ok := model[pr.K]; ok && pr.V != want {
							errs <- fmt.Errorf("worker %d: scan key %d = %d, want %d", id, pr.K, pr.V, want)
							return
						}
					}
				}
				acked.Add(1)
			}
		}(id)
	}

	for deadline := time.Now().Add(120 * time.Second); acked.Load() < target; {
		if time.Now().After(deadline) {
			t.Fatalf("pipelined workers stuck at %d/%d acked ops", acked.Load(), target)
		}
		time.Sleep(time.Millisecond)
	}

	// Mid-stream crash + teardown: in-flight ops must all resolve (the
	// sync calls return — a hang here is the failure).
	tearingDown.Store(true)
	cc, err := Dial(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.Crash(42); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Crashed():
	case <-time.After(10 * time.Second):
		t.Fatal("Crashed() not signalled")
	}
	cc.Close()
	srv.Shutdown() // kills every connection with ops still in flight
	close(stop)
	wg.Wait()
	maintWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	set.Abandon() // die without syncing: crash images are the truth

	set2, err := shard.Open(dir, shard.Options{})
	if err != nil {
		t.Fatalf("recovery after pipelined crash: %v", err)
	}
	defer set2.Abandon()
	rep, err := set2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unrecovered != 0 {
		t.Fatalf("scrub after pipelined crash: %d unrecoverable (%+v)", rep.Unrecovered, rep)
	}
}

// TestPipelineDeepensGroupCommits is the wire-level proof of the
// tentpole's perf mechanism: the same op count driven at depth 64
// produces strictly deeper group commits than lockstep depth 1.
func TestPipelineDeepensGroupCommits(t *testing.T) {
	run := func(depth int) float64 {
		_, addr := startServer(t, t.TempDir(), 2)
		c, err := Dial(t.Context(), addr, WithPipelineDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		perWorker := 200
		for w := 0; w < depth; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if err := c.Put(uint64(w*perWorker+i), uint64(i)); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Batches == 0 {
			return 1 // no group commits at all: depth achieved is 1
		}
		return float64(st.BatchedOps) / float64(st.Batches)
	}
	shallow := run(1)
	deep := run(64)
	if deep <= shallow {
		t.Fatalf("group depth at pipeline 64 = %.2f, not deeper than %.2f at pipeline 1", deep, shallow)
	}
}
