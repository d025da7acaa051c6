package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// options collects the dial-time knobs; see the With… Option helpers.
type options struct {
	depth       int           // requested in-flight window (0 → server default)
	dialTimeout time.Duration // connect timeout (0 → ctx only)
	reqTimeout  time.Duration // per-op wait ceiling when ctx has no deadline
}

// Option configures a Client at Dial time.
type Option func(*options)

// WithPipelineDepth requests an in-flight window of n operations: the
// client keeps at most n requests outstanding on the wire at once. The
// server grants min(n, MaxWindow) — the handshake reply carries the
// grant — and the client honors the granted value. n <= 0 asks for the
// server's default (DefaultWindow). Depth 1 degenerates to lockstep
// request/reply; deeper windows keep shard group-commit batches full.
func WithPipelineDepth(n int) Option {
	return func(o *options) { o.depth = n }
}

// WithDialTimeout bounds the TCP connect (and HELLO handshake) time,
// composing with any deadline already on the Dial context.
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) { o.dialTimeout = d }
}

// WithRequestTimeout sets a default per-operation wait ceiling, applied
// whenever the operation's context has no deadline of its own. Zero
// (the default) waits indefinitely. A timed-out wait abandons the wait
// only — the operation stays in flight and its window slot is released
// when the server's reply eventually arrives.
func WithRequestTimeout(d time.Duration) Option {
	return func(o *options) { o.reqTimeout = d }
}

// clientOp is one in-flight operation: its encoded request frame on the
// way out, and its resolution (status+body or error) on the way back.
// done closes exactly once, after which status/body/err are immutable.
//
// frame is pooled (see pool.go): submit owns it until the op lands on
// sendq, the writer owns it from there and recycles it as soon as the
// bytes reach the bufio layer. Nothing reads frame after that hand-off.
// Reply bodies are copied out of the reader's reused frame buffer —
// small ones into the op's inline array — so body is an owned copy,
// valid forever.
type clientOp struct {
	seq     uint64
	frame   *frameBuf // [len][seq][request], ready for one Write
	status  uint8
	body    []byte // owned copy; valid forever
	err     error
	done    chan struct{}
	bodyArr [24]byte // inline storage for small reply bodies (GET = 8 B)
}

// Client is a pipelined connection to a KV server. It is safe for
// concurrent use by any number of goroutines: each call claims a slot
// in the connection's in-flight window, ships its frame, and waits for
// the matching reply — many calls overlap on one connection, which is
// exactly what keeps the server's group-commit batches full. The
// synchronous methods (Get, Put, …) keep their original signatures;
// GetAsync/PutAsync/DelAsync and Pipeline expose the same window
// without blocking per call.
//
// A wire or protocol failure is fatal to the connection: every
// in-flight and future operation resolves with the error (never a
// silent drop), and Err reports it.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	window     int           // granted in-flight window
	reqTimeout time.Duration // see WithRequestTimeout

	sem   chan struct{}  // one slot per in-flight op
	sendq chan *clientOp // submit → writer goroutine
	fatal chan struct{}  // closed once, when the client dies

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*clientOp // seq → op
	err     error                // fatal error; nil while healthy
	closed  bool

	readerDone chan struct{}
	writerDone chan struct{}
}

// Dial connects to a KV server and performs the HELLO handshake that
// negotiates the protocol version and the in-flight window. ctx bounds
// the connect and handshake; per-operation deadlines come from the
// operation contexts (or WithRequestTimeout).
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	d := net.Dialer{Timeout: o.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:       conn,
		br:         bufio.NewReader(conn),
		bw:         bufio.NewWriter(conn),
		reqTimeout: o.reqTimeout,
		fatal:      make(chan struct{}),
		pending:    make(map[uint64]*clientOp),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	if c.window, err = c.hello(ctx, o); err != nil {
		conn.Close()
		return nil, err
	}
	// Capacity invariant: every op in sendq holds a window slot, so a
	// submit that owns a slot can always enqueue without blocking.
	c.sem = make(chan struct{}, c.window)
	c.sendq = make(chan *clientOp, c.window)
	go c.readLoop()
	go c.writeLoop()
	return c, nil
}

// hello runs the handshake on the fresh connection: one seqless HELLO
// frame out, one seqless ACK back carrying the negotiated version and
// the granted window.
func (c *Client) hello(ctx context.Context, o options) (int, error) {
	if o.dialTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(o.dialTimeout))
	} else if dl, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(dl)
	}
	defer c.conn.SetDeadline(time.Time{})
	req := Request{Op: OpHello, Key: HelloMagic, Val: ProtocolV2}
	if o.depth > 0 {
		req.Limit = uint64(o.depth)
	}
	payload, err := EncodeRequest(nil, req)
	if err != nil {
		return 0, err
	}
	if err := WriteFrame(c.bw, payload); err != nil {
		return 0, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	resp, err := ReadFrame(c.br, nil)
	if err != nil {
		return 0, fmt.Errorf("server: reading HELLO ack: %w", err)
	}
	status, body, err := DecodeResponse(resp)
	if err != nil {
		return 0, err
	}
	if status != StatusOK {
		return 0, fmt.Errorf("server: HELLO rejected: %s", body)
	}
	if len(body) != 16 {
		return 0, fmt.Errorf("server: HELLO ack body of %d bytes", len(body))
	}
	version := binary.BigEndian.Uint64(body)
	win := binary.BigEndian.Uint64(body[8:])
	if version != ProtocolV2 || win == 0 || win > MaxWindow {
		return 0, fmt.Errorf("server: HELLO ack negotiated version %d, window %d", version, win)
	}
	return int(win), nil
}

// Window reports the in-flight window the server granted this
// connection.
func (c *Client) Window() int { return c.window }

// Err reports the connection's fatal error: nil while the client is
// healthy, the first wire or protocol failure once it dies, and
// ErrClientClosed after Close.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the connection down. Every in-flight operation resolves
// with ErrClientClosed — never a silent drop — and Close returns once
// the connection's goroutines have exited.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.sem == nil { // Dial failed before the loops started
		if c.conn != nil {
			c.conn.Close()
		}
		return nil
	}
	c.fail(ErrClientClosed)
	<-c.readerDone
	<-c.writerDone
	return nil
}

// fail kills the connection exactly once: records err, wakes every
// blocked submitter, closes the socket (unblocking the reader), and
// resolves every registered in-flight op with err. Ownership of each op
// transfers under c.mu — either the reader resolves it with a reply or
// fail resolves it with the error, never both.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	pend := c.pending
	c.pending = nil
	close(c.fatal)
	c.mu.Unlock()
	c.conn.Close()
	for _, op := range pend {
		op.err = err
		close(op.done)
	}
}

// submit claims a window slot, registers the op for reply matching, and
// hands it to the writer goroutine. It never blocks past ctx: a full
// window (all slots in flight) is backpressure, and the caller's ctx
// bounds how long to wait for one. Failures resolve the returned op
// immediately; it always resolves eventually.
func (c *Client) submit(ctx context.Context, req Request) *clientOp {
	op := &clientOp{done: make(chan struct{})}
	f := getFrame()
	// Seq placeholder up front; patched once the seq is assigned.
	b, err := EncodeRequestSeq(beginFrame(f), 0, req)
	if err != nil {
		putFrame(f)
		op.err = err
		close(op.done)
		return op
	}
	f.b = finishFrame(b)
	op.frame = f
	select {
	case c.sem <- struct{}{}:
	case <-c.fatal:
		putFrame(f)
		op.frame = nil
		op.err = c.Err()
		close(op.done)
		return op
	case <-ctx.Done():
		putFrame(f)
		op.frame = nil
		op.err = fmt.Errorf("server: awaiting window slot: %w", ctx.Err())
		close(op.done)
		return op
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		<-c.sem
		putFrame(f)
		op.frame = nil
		op.err = err
		close(op.done)
		return op
	}
	op.seq = c.seq
	c.seq++
	binary.BigEndian.PutUint64(op.frame.b[frameHeaderLen:], op.seq)
	c.pending[op.seq] = op
	// Cannot block: sendq capacity == window, and op holds a slot.
	c.sendq <- op
	c.mu.Unlock()
	return op
}

// writeLoop is the connection's writer goroutine: it streams queued
// frames to the wire, flushing whenever the queue goes empty so a lone
// request never sits in the buffer while deep pipelines coalesce into
// few syscalls. Each frame (length prefix included, so it is a single
// Write) returns to the pool the moment its bytes reach the bufio
// layer; ops still queued when the connection dies just drop their
// frames to the GC.
func (c *Client) writeLoop() {
	defer close(c.writerDone)
	for {
		select {
		case op := <-c.sendq:
			_, err := c.bw.Write(op.frame.b)
			putFrame(op.frame)
			op.frame = nil
			if err != nil {
				c.fail(err)
				return
			}
			if len(c.sendq) == 0 {
				if err := c.bw.Flush(); err != nil {
					c.fail(err)
					return
				}
			}
		case <-c.fatal:
			return
		}
	}
}

// readLoop is the connection's reader goroutine: it decodes reply
// frames, matches each to its op by echoed sequence number, resolves
// the op, and releases its window slot. Any decode or matching failure
// is a protocol error and kills the connection.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	var buf []byte
	for {
		frame, err := ReadFrame(c.br, buf[:0])
		if err != nil {
			c.fail(err)
			return
		}
		buf = frame
		seq, status, body, err := DecodeResponseSeq(frame)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		op := c.pending[seq]
		delete(c.pending, seq)
		c.mu.Unlock()
		if op == nil {
			c.fail(fmt.Errorf("server: reply for unknown sequence %d", seq))
			return
		}
		op.status = status
		if len(body) > 0 {
			// The frame buffer is reused for the next reply, so the body
			// must be copied out; small bodies (GET values, status
			// messages) land in the op's inline array instead of a fresh
			// heap slice.
			if len(body) <= len(op.bodyArr) {
				op.body = op.bodyArr[:len(body)]
				copy(op.body, body)
			} else {
				op.body = append([]byte(nil), body...)
			}
		}
		op.err = statusError(status, body)
		close(op.done)
		<-c.sem
	}
}

// wait blocks until op resolves or ctx expires (WithRequestTimeout
// supplies a deadline when ctx has none). Abandoning a wait does not
// cancel the operation — it stays in flight and resolves when its
// reply arrives.
func (c *Client) wait(ctx context.Context, op *clientOp) (uint8, []byte, error) {
	select {
	case <-op.done:
		return op.status, op.body, op.err
	default:
	}
	if c.reqTimeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.reqTimeout)
			defer cancel()
		}
	}
	select {
	case <-op.done:
		return op.status, op.body, op.err
	case <-ctx.Done():
		return 0, nil, fmt.Errorf("server: awaiting reply: %w", ctx.Err())
	}
}

// call submits req and waits for its reply: the one-op synchronous
// round trip, pipelining transparently with concurrent callers.
func (c *Client) call(ctx context.Context, req Request) (uint8, []byte, error) {
	return c.wait(ctx, c.submit(ctx, req))
}

// future is the shared core of the typed futures: a handle to one
// in-flight operation.
type future struct {
	c  *Client
	op *clientOp
}

// Done is closed once the operation resolves; read the result with the
// typed Result method.
func (f *future) Done() <-chan struct{} { return f.op.done }

// GetFuture is an in-flight asynchronous GET.
type GetFuture struct{ future }

// Result waits for the GET and returns its value and presence.
func (f *GetFuture) Result(ctx context.Context) (uint64, bool, error) {
	_, body, err := f.c.wait(ctx, f.op)
	if errors.Is(err, ErrNotFound) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if len(body) != 8 {
		return 0, false, fmt.Errorf("server: GET response body of %d bytes", len(body))
	}
	return binary.BigEndian.Uint64(body), true, nil
}

// PutFuture is an in-flight asynchronous PUT.
type PutFuture struct{ future }

// Result waits for the PUT and returns its outcome.
func (f *PutFuture) Result(ctx context.Context) error {
	_, _, err := f.c.wait(ctx, f.op)
	return err
}

// DelFuture is an in-flight asynchronous DEL.
type DelFuture struct{ future }

// Result waits for the DEL and reports whether the key was present.
func (f *DelFuture) Result(ctx context.Context) (bool, error) {
	_, _, err := f.c.wait(ctx, f.op)
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// GetAsync submits a GET without waiting for the reply. ctx bounds only
// the wait for a window slot; read the result (bounded by its own ctx)
// from the returned future. The future always resolves.
func (c *Client) GetAsync(ctx context.Context, k uint64) *GetFuture {
	return &GetFuture{future{c, c.submit(ctx, Request{Op: OpGet, Key: k})}}
}

// PutAsync submits a PUT without waiting for the reply.
func (c *Client) PutAsync(ctx context.Context, k, v uint64) *PutFuture {
	return &PutFuture{future{c, c.submit(ctx, Request{Op: OpPut, Key: k, Val: v})}}
}

// DelAsync submits a DEL without waiting for the reply.
func (c *Client) DelAsync(ctx context.Context, k uint64) *DelFuture {
	return &DelFuture{future{c, c.submit(ctx, Request{Op: OpDel, Key: k})}}
}

// Pipeline batches operations on one window: each Get/Put/Del submits
// immediately (filling the wire back-to-back), and Wait collects every
// outcome. Build a Pipeline from one goroutine; the underlying Client
// remains safe for concurrent use, so independent goroutines can run
// independent pipelines on the same connection.
type Pipeline struct {
	c   *Client
	ctx context.Context
	ops []*clientOp
}

// Pipeline starts an operation batch whose submissions and Wait are
// bounded by ctx.
func (c *Client) Pipeline(ctx context.Context) *Pipeline {
	return &Pipeline{c: c, ctx: ctx}
}

// Get queues a GET on the pipeline.
func (p *Pipeline) Get(k uint64) *GetFuture {
	f := p.c.GetAsync(p.ctx, k)
	p.ops = append(p.ops, f.op)
	return f
}

// Put queues a PUT on the pipeline.
func (p *Pipeline) Put(k, v uint64) *PutFuture {
	f := p.c.PutAsync(p.ctx, k, v)
	p.ops = append(p.ops, f.op)
	return f
}

// Del queues a DEL on the pipeline.
func (p *Pipeline) Del(k uint64) *DelFuture {
	f := p.c.DelAsync(p.ctx, k)
	p.ops = append(p.ops, f.op)
	return f
}

// Len reports how many operations the pipeline has queued.
func (p *Pipeline) Len() int { return len(p.ops) }

// Wait blocks until every queued operation resolves and returns the
// first failure, if any. Absent keys (ErrNotFound) are outcomes, not
// failures — read them from the individual futures.
func (p *Pipeline) Wait() error {
	var first error
	for _, op := range p.ops {
		_, _, err := p.c.wait(p.ctx, op)
		if err != nil && !errors.Is(err, ErrNotFound) && first == nil {
			first = err
		}
	}
	return first
}

// Get fetches the value for k.
func (c *Client) Get(k uint64) (uint64, bool, error) {
	_, body, err := c.call(context.Background(), Request{Op: OpGet, Key: k})
	if errors.Is(err, ErrNotFound) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	if len(body) != 8 {
		return 0, false, fmt.Errorf("server: GET response body of %d bytes", len(body))
	}
	return binary.BigEndian.Uint64(body), true, nil
}

// Put inserts or updates k.
func (c *Client) Put(k, v uint64) error {
	_, _, err := c.call(context.Background(), Request{Op: OpPut, Key: k, Val: v})
	return err
}

// Del removes k, reporting whether it was present.
func (c *Client) Del(k uint64) (bool, error) {
	_, _, err := c.call(context.Background(), Request{Op: OpDel, Key: k})
	if errors.Is(err, ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// MGet fetches many keys in one round trip; the server group-commits each
// shard's slice. It returns values and presence flags in key order.
func (c *Client) MGet(keys []uint64) ([]uint64, []bool, error) {
	status, body, err := c.call(context.Background(), Request{Op: OpMGet, Keys: keys})
	if err != nil {
		return nil, nil, err
	}
	if status != StatusOK || len(body) != 9*len(keys) {
		return nil, nil, fmt.Errorf("server: MGET response status %d, body %d bytes for %d keys",
			status, len(body), len(keys))
	}
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	for i := range keys {
		rec := body[i*9:]
		switch rec[0] {
		case BatchOK:
			found[i] = true
			vals[i] = binary.BigEndian.Uint64(rec[1:])
		case BatchNotFound:
		default:
			return nil, nil, fmt.Errorf("server: MGET op %d (key %d) failed", i, keys[i])
		}
	}
	return vals, found, nil
}

// MPut inserts or updates many pairs in one round trip; each shard's
// slice commits as one transaction. A non-nil error reports the first
// failed op (the others are unaffected — see the batch semantics in the
// package documentation).
func (c *Client) MPut(keys, vals []uint64) error {
	status, body, err := c.call(context.Background(), Request{Op: OpMPut, Keys: keys, Vals: vals})
	if err != nil {
		return err
	}
	if status != StatusOK || len(body) != len(keys) {
		return fmt.Errorf("server: MPUT response status %d, body %d bytes for %d ops",
			status, len(body), len(keys))
	}
	for i, st := range body {
		if st != BatchOK {
			return fmt.Errorf("server: MPUT op %d (key %d) failed", i, keys[i])
		}
	}
	return nil
}

// MDel removes many keys in one round trip; each shard's slice commits
// as one transaction. It reports per-key presence in key order.
func (c *Client) MDel(keys []uint64) ([]bool, error) {
	status, body, err := c.call(context.Background(), Request{Op: OpMDel, Keys: keys})
	if err != nil {
		return nil, err
	}
	if status != StatusOK || len(body) != len(keys) {
		return nil, fmt.Errorf("server: MDEL response status %d, body %d bytes for %d ops",
			status, len(body), len(keys))
	}
	present := make([]bool, len(keys))
	for i, st := range body {
		switch st {
		case BatchOK:
			present[i] = true
		case BatchNotFound:
		default:
			return nil, fmt.Errorf("server: MDEL op %d (key %d) failed", i, keys[i])
		}
	}
	return present, nil
}

// Scan fetches up to limit pairs with keys in [lo, hi] in ascending key
// order, resuming from cursor (pass 0 to start at lo, then the returned
// next while more is true). limit 0 (or beyond MaxScanPairs) asks for a
// full MaxScanPairs frame. Consistency is per server-side chunk — each
// chunk is a committed image of its shard, but a paginated live scan
// spans chunks and shards without pinning anything, so later pages see
// later commits. When every page must observe one committed state, use
// SnapScan, which pins a server-side snapshot for the scan's lifetime
// (see the package documentation). Do not feed a SnapScanner's cursor
// here: the two modes promise different consistency, which is why the
// snapshot cursor lives inside the scanner rather than in a value this
// method accepts.
func (c *Client) Scan(lo, hi uint64, limit int, cursor uint64) (pairs []Pair, next uint64, more bool, err error) {
	status, body, err := c.call(context.Background(), Request{
		Op: OpScan, Key: lo, Val: hi, Limit: uint64(limit), Cursor: cursor,
	})
	if err != nil {
		return nil, 0, false, err
	}
	if status != StatusOK || len(body) < 9 || (len(body)-9)%16 != 0 {
		return nil, 0, false, fmt.Errorf("server: SCAN response status %d, body %d bytes", status, len(body))
	}
	more = body[0] == 1
	next = binary.BigEndian.Uint64(body[1:])
	n := (len(body) - 9) / 16
	pairs = make([]Pair, n)
	for i := 0; i < n; i++ {
		rec := body[9+i*16:]
		pairs[i] = Pair{K: binary.BigEndian.Uint64(rec), V: binary.BigEndian.Uint64(rec[8:])}
	}
	return pairs, next, more, nil
}

// ScanAll paginates Scan until the range is exhausted, calling fn for
// every pair in ascending key order; fn returning false stops the scan.
func (c *Client) ScanAll(lo, hi uint64, fn func(k, v uint64) bool) error {
	cursor := uint64(0)
	for {
		pairs, next, more, err := c.Scan(lo, hi, 0, cursor)
		if err != nil {
			return err
		}
		for _, pr := range pairs {
			if !fn(pr.K, pr.V) {
				return nil
			}
		}
		if !more {
			return nil
		}
		cursor = next
	}
}

// SnapScanner pages one snapshot-consistent scan: the first Next opens
// a server-side snapshot (pinning every shard's current generation) and
// every later Next continues it, so all pages together observe exactly
// one committed state of the set no matter how many commits land while
// the scan pages. The scanner owns its snapshot id and cursor — there
// is deliberately no way to extract the cursor into a live Scan or to
// seed a scanner from a live scan's cursor, so the two consistency
// modes cannot be mixed by construction; the server enforces the same
// contract with ErrCursorMode for hand-rolled frames.
//
// The snapshot's pins release when the scan completes (the server drops
// them with the terminal page) or the connection closes; an abandoned
// scanner holds its pins until then, and at most MaxConnSnapshots
// scanners can be open per connection. A scanner whose pinned
// generation the server evicted (version-buffer caps) fails with
// ErrSnapshotTooOld — reopen and rescan, never resume mixed.
//
// Use from one goroutine; the underlying Client stays safe for
// concurrent use by others.
type SnapScanner struct {
	c      *Client
	lo, hi uint64
	snapID uint64
	cursor uint64
	done   bool
	err    error
}

// SnapScan starts a snapshot-consistent scan of [lo, hi]. The snapshot
// is not pinned until the first Next call.
func (c *Client) SnapScan(lo, hi uint64) *SnapScanner {
	return &SnapScanner{c: c, lo: lo, hi: hi}
}

// Next fetches the scan's next page of up to limit pairs (0 or beyond
// MaxScanPairs asks for a full frame), in ascending key order. It
// returns nil once the range is exhausted; a failed scanner keeps
// returning its error.
func (sc *SnapScanner) Next(limit int) ([]Pair, error) {
	if sc.err != nil {
		return nil, sc.err
	}
	if sc.done {
		return nil, nil
	}
	lo := sc.lo
	if sc.cursor > lo {
		lo = sc.cursor
	}
	status, body, err := sc.c.call(context.Background(), Request{
		Op: OpSnapScan, Key: lo, Val: sc.hi, Limit: uint64(limit), Cursor: sc.cursor, SnapID: sc.snapID,
	})
	if err != nil {
		sc.err = err
		return nil, err
	}
	if status != StatusOK || len(body) < 17 || (len(body)-17)%16 != 0 {
		sc.err = fmt.Errorf("server: SNAPSCAN response status %d, body %d bytes", status, len(body))
		return nil, sc.err
	}
	sc.snapID = binary.BigEndian.Uint64(body)
	more := body[8] == 1
	sc.cursor = binary.BigEndian.Uint64(body[9:])
	n := (len(body) - 17) / 16
	pairs := make([]Pair, n)
	for i := 0; i < n; i++ {
		rec := body[17+i*16:]
		pairs[i] = Pair{K: binary.BigEndian.Uint64(rec), V: binary.BigEndian.Uint64(rec[8:])}
	}
	if !more {
		sc.done = true // the server released the snapshot with this page
	}
	return pairs, nil
}

// Done reports whether the scan has exhausted its range.
func (sc *SnapScanner) Done() bool { return sc.done }

// Scrub reads the server's maintenance health and, when run is set,
// first triggers a full scrubbing pass across every shard and waits for
// it. The pass executes as bounded incremental steps interleaved with
// live traffic on each shard; the returned status carries its merged
// report (check Report.ChecksumsVerified before reading "0 bad objects"
// as "verified clean") plus the scrub health counters.
func (c *Client) Scrub(run bool) (ScrubStatus, error) {
	var st ScrubStatus
	mode := uint64(0)
	if run {
		mode = 1
	}
	_, body, err := c.call(context.Background(), Request{Op: OpScrub, Key: mode})
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("server: decoding scrub status: %w", err)
	}
	return st, nil
}

// InjectReport is an INJECT reply: how many objects were corrupted, and
// the per-shard capability picture that makes a zero count
// interpretable — CapableShards == 0 means no shard backend carries the
// injection hook at all (log shards have no redundancy to heal with),
// so retrying with fresh seeds is futile; CapableShards > 0 with
// Injected == 0 means the capable shards simply held nothing live yet.
type InjectReport struct {
	Injected      uint64 // objects actually corrupted
	CapableShards uint64 // shards whose backend implements fault injection
	TotalShards   uint64 // shards in the set
}

// Inject asks the server to corrupt count pseudo-randomly chosen live
// objects across the shards (scribbles and media-error poison,
// alternating by seed) — the fault-injection hook the corruption-healing
// tests drive. The report says how many objects were corrupted and how
// many shards could inject at all. Like CRASH, this is a test harness
// op, not a production verb.
func (c *Client) Inject(seed int64, count int) (InjectReport, error) {
	status, body, err := c.call(context.Background(), Request{Op: OpInject, Key: uint64(seed), Val: uint64(count)})
	if err != nil {
		return InjectReport{}, err
	}
	if status != StatusOK || len(body) != 24 {
		return InjectReport{}, fmt.Errorf("server: INJECT response status %d, body %d bytes", status, len(body))
	}
	return InjectReport{
		Injected:      binary.BigEndian.Uint64(body),
		CapableShards: binary.BigEndian.Uint64(body[8:]),
		TotalShards:   binary.BigEndian.Uint64(body[16:]),
	}, nil
}

// Stats fetches the server's shard statistics.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	_, body, err := c.call(context.Background(), Request{Op: OpStats})
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("server: decoding stats: %w", err)
	}
	return st, nil
}

// Sync asks the server to save every shard snapshot.
func (c *Client) Sync() error {
	_, _, err := c.call(context.Background(), Request{Op: OpSync})
	return err
}

// Crash asks the server to simulate a machine crash: every shard file is
// replaced with a crash image, and the server process is expected to die
// without syncing. The call returns once the images are written.
func (c *Client) Crash(seed int64) error {
	_, _, err := c.call(context.Background(), Request{Op: OpCrash, Key: uint64(seed)})
	return err
}
