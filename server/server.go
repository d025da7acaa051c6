package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/shard"
)

// Stats is the payload of a STATS response.
type Stats = shard.Stats

// Pair is one key/value pair in a SCAN response.
type Pair = shard.Pair

// ScrubHealth is the maintenance subsystem's health block, carried by
// both STATS (inside the shard stats) and SCRUB responses.
type ScrubHealth = shard.ScrubHealth

// ScrubStatus is the JSON payload of a SCRUB response: the set-wide
// maintenance health, plus — when the request asked for a pass — the
// merged report of the full pass it ran.
type ScrubStatus struct {
	// Ran reports whether this request ran a full pass (mode 1); with
	// mode 0 the response is health-only and Report is zero.
	Ran bool `json:"ran"`
	// Report is the merged full-pass report when Ran. Its
	// checksums_verified field says whether object checksums were
	// actually verified — false in checksum-less modes, where "0 bad
	// objects" must not be read as "verified clean".
	Report pangolin.ScrubReport `json:"report"`
	Health ScrubHealth          `json:"health"`
}

// Server serves the KV protocol over TCP on top of a shard.Set. It owns
// the network side only: the set is created and closed by the caller, so a
// simulated crash can abandon the set while the process decides how to
// die.
type Server struct {
	set *shard.Set

	mu      sync.Mutex
	ln      net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closing atomic.Bool

	crashOnce sync.Once
	crashed   chan struct{}
}

// New wraps set in a server.
func New(set *shard.Set) *Server {
	return &Server{
		set:     set,
		conns:   make(map[net.Conn]struct{}),
		crashed: make(chan struct{}),
	}
}

// Listen binds addr (e.g. "127.0.0.1:7499"; port 0 picks a free port).
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr returns the bound address; call after Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown; it returns nil on a clean
// shutdown.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return fmt.Errorf("server: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Shutdown stops accepting, closes every connection, and waits for the
// handlers to finish. It does not touch the shard set.
func (s *Server) Shutdown() {
	s.closing.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Crashed is closed after an OpCrash request has written crash images for
// every shard. The process owner should then exit WITHOUT syncing the set,
// completing the simulated machine death.
func (s *Server) Crashed() <-chan struct{} { return s.crashed }

// connSnaps is one connection's open-snapshot table: the SNAPSCAN ids
// this connection may continue, capped at MaxConnSnapshots so one
// client cannot pin unbounded version history. The table is the pin's
// lifetime bound — releaseAll runs when the connection ends (clean or
// dropped), so an abandoned paginated scan never leaks its pins past
// the connection.
type connSnaps struct {
	mu    sync.Mutex
	next  uint64
	snaps map[uint64]*shard.SetSnapshot
}

// add registers an opened snapshot, or fails at the cap (the caller
// releases the snapshot it could not register).
func (cs *connSnaps) add(sn *shard.SetSnapshot) (uint64, error) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if len(cs.snaps) >= MaxConnSnapshots {
		return 0, fmt.Errorf("server: connection already holds %d open snapshots (finish or abandon one first)", MaxConnSnapshots)
	}
	if cs.snaps == nil {
		cs.snaps = make(map[uint64]*shard.SetSnapshot)
	}
	cs.next++
	cs.snaps[cs.next] = sn
	return cs.next, nil
}

// get looks a continuation's snapshot up; nil when the id was never
// assigned or already released.
func (cs *connSnaps) get(id uint64) *shard.SetSnapshot {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.snaps[id]
}

// remove drops and releases one snapshot (idempotent).
func (cs *connSnaps) remove(id uint64) {
	cs.mu.Lock()
	sn := cs.snaps[id]
	delete(cs.snaps, id)
	cs.mu.Unlock()
	if sn != nil {
		sn.Release()
	}
}

// releaseAll drops every pin the connection still holds.
func (cs *connSnaps) releaseAll() {
	cs.mu.Lock()
	snaps := cs.snaps
	cs.snaps = nil
	cs.mu.Unlock()
	for _, sn := range snaps {
		sn.Release()
	}
}

// serveConn handles one connection. The first frame must be a HELLO
// offering ProtocolV2; the connection then runs the pipelined loop
// (sequence-numbered frames, out-of-order completion). Any other first
// frame — a plain request, opcode 13 without the magic, garbage — is
// answered with one seqless ERR and the connection closes.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	cs := &connSnaps{}
	defer cs.releaseAll() // dropped connections release their pins
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	first, err := ReadFrame(br, nil)
	if err != nil {
		return // EOF or broken conn; nothing to answer
	}
	version, window, ok := DecodeHello(first)
	switch {
	case !ok:
		refuse(bw, "server: the first frame must be a HELLO (op 13 carrying HelloMagic)")
	case version != ProtocolV2:
		refuse(bw, fmt.Sprintf("server: unsupported protocol version %d", version))
	default:
		s.servePipelined(br, bw, GrantWindow(window), cs)
	}
}

// refuse answers a connection that cannot be served with one seqless
// ERR frame; the caller then closes it.
func refuse(bw *bufio.Writer, msg string) {
	if WriteFrame(bw, EncodeResponse(nil, StatusErr, []byte(msg))) == nil {
		bw.Flush()
	}
}

// completion is one finished request on its way to the wire. The
// frame is pooled: it is owned by the completing goroutine until it
// lands on the completions channel, then by the writer, which recycles
// it the moment the bytes reach the bufio layer (see pool.go and the
// ownership contract in doc.go).
type completion struct {
	f     *frameBuf // [len][seq + status + body], ready for one Write
	crash bool      // a successful OpCrash: flush, then announce
}

// pipeConn is the per-connection state of a pipelined session: the
// in-flight window semaphore the reader acquires per request (and the
// writer releases once the reply is on the wire) and the completion
// channel between op completion and the writer goroutine. The channel's
// capacity equals the window, and every in-flight op holds exactly one
// window slot, so completing an op NEVER blocks — a shard worker
// goroutine invoking a completion callback cannot be stalled by a slow
// connection.
//
// The multi-shard verbs run on the connection's handler goroutines.
// A handler is long-lived, so its stack stays grown across requests;
// the reader hands it a task with a non-blocking send and starts a new
// handler only when none is idle, so a slow verb never queues another
// behind it. Each busy handler serves one request that holds a window
// slot, and the reader holds another for the task it hands off, so the
// reader stops spawning at the window size: from then on at least one
// handler is idle or about to be, and a blocking send waits only for
// it to get back to its receive.
type pipeConn struct {
	s           *Server
	cs          *connSnaps
	sem         chan struct{}
	completions chan completion
	inflight    sync.WaitGroup

	tasks    chan task // unbuffered: a send succeeds only into an idle handler
	handlers sync.WaitGroup
	spawned  int // handlers started; touched only by the reader
}

// task is one request for a handler goroutine.
type task struct {
	seq uint64
	req Request
}

// complete finishes one request with a status and body, encoding the
// whole frame (length prefix, echoed sequence, status, body) into one
// pooled buffer. body is copied, so callers may pass stack memory.
func (pc *pipeConn) complete(seq uint64, status uint8, body []byte) {
	f := getFrame()
	b := appendU64(beginFrame(f), seq)
	b = append(b, status)
	b = append(b, body...)
	f.b = finishFrame(b)
	pc.push(f, false)
}

// completeErr finishes one request with a typed failure status.
func (pc *pipeConn) completeErr(seq uint64, err error) {
	pc.complete(seq, errStatus(err), []byte(err.Error()))
}

// push hands a finished frame to the writer and retires the request
// from the in-flight count. The frame is the writer's after this; the
// completing goroutine must not touch it again.
func (pc *pipeConn) push(f *frameBuf, crash bool) {
	pc.completions <- completion{f: f, crash: crash}
	pc.inflight.Done()
}

// writeLoop is the per-connection writer goroutine: it streams
// completions to the wire in the order they land — which is completion
// order, not request order. Ready completions coalesce: each one goes
// into the bufio layer, and the writer flushes once the queue has
// settled — empty, and still empty after one yield (see shard.Settled) — so
// the replies to the GETs the reader completes inline from one read,
// and a burst of shard completions, cost one syscall rather than one
// each; an idle connection pays one uncontended yield per reply. Each
// completion's window slot is released once its reply is written, and
// its frame returns to the pool. A write error marks the connection
// dead but the loop keeps draining (and discarding), so in-flight
// completion callbacks can never block on a broken connection.
func (pc *pipeConn) writeLoop(bw *bufio.Writer, done chan struct{}) {
	defer close(done)
	dead := false
	for c := range pc.completions {
		if !dead {
			if _, err := bw.Write(c.f.b); err != nil {
				dead = true
			}
		}
		putFrame(c.f)
		if c.crash && !dead {
			// Announce only after the OK response is on the wire, so
			// the requesting client sees its answer before the process
			// owner starts killing connections.
			if err := bw.Flush(); err != nil {
				dead = true
			} else {
				pc.s.crashOnce.Do(func() { close(pc.s.crashed) })
			}
		}
		<-pc.sem
		if !dead && shard.Settled(pc.completions) {
			if err := bw.Flush(); err != nil {
				dead = true
			}
		}
	}
}

// servePipelined acks a HELLO with the granted window win and runs the
// session: a reader loop (this goroutine) that decodes frames and
// dispatches them for asynchronous completion, and a writer goroutine
// that streams replies as they complete. When a connection has win ops
// outstanding the reader simply stops reading — TCP backpressure is the
// overload behavior, and the window bounds the per-connection
// completion memory. On connection loss or server shutdown every
// dispatched op still resolves (the writer drains what it cannot send),
// so no completion callback is ever left dangling.
func (s *Server) servePipelined(br *bufio.Reader, bw *bufio.Writer, win int, cs *connSnaps) {
	ack := appendU64(appendU64(nil, ProtocolV2), uint64(win))
	if WriteFrame(bw, EncodeResponse(nil, StatusOK, ack)) != nil {
		return
	}
	if bw.Flush() != nil {
		return
	}
	pc := &pipeConn{
		s:           s,
		cs:          cs,
		sem:         make(chan struct{}, win),
		completions: make(chan completion, win),
		tasks:       make(chan task),
	}
	writerDone := make(chan struct{})
	go pc.writeLoop(bw, writerDone)
	var in []byte
	for {
		payload, err := ReadFrame(br, in)
		if err != nil {
			break
		}
		in = payload
		seq, req, err := DecodeRequestSeq(payload)
		if err != nil && len(payload) < 8 {
			break // no sequence number to echo: corrupt stream, drop
		}
		pc.sem <- struct{}{} // in-flight window: blocks when full
		pc.inflight.Add(1)
		if err != nil {
			pc.complete(seq, StatusErr, []byte(err.Error()))
			continue
		}
		pc.dispatch(seq, req)
	}
	// No more requests (EOF, broken conn, or corrupt stream). Every
	// dispatched op still completes: the handlers finish theirs and
	// exit, then the writer drains its queue and exits.
	close(pc.tasks)
	pc.handlers.Wait()
	pc.inflight.Wait()
	close(pc.completions)
	<-writerDone
}

// dispatch routes one request for asynchronous completion. Single-key
// data ops feed the shard layer directly: writes go straight into the
// shard worker queue (whose group-commit drain folds queued ops into
// one transaction — the reason deep pipelines produce big groups), and
// GETs run the concurrent verified-read fast path inline on this
// reader goroutine, falling back to the queue. The remaining verbs
// block on multi-shard fan-outs, so they go to the connection's
// handlers (see pipeConn).
func (pc *pipeConn) dispatch(seq uint64, req Request) {
	s := pc.s
	switch req.Op {
	case OpGet:
		s.set.SubmitGet(req.Key, func(r shard.BatchResult) {
			switch {
			case r.Err != nil:
				pc.completeErr(seq, r.Err)
			case !r.OK:
				pc.complete(seq, StatusNotFound, nil)
			default:
				var body [8]byte
				binary.BigEndian.PutUint64(body[:], r.V)
				pc.complete(seq, StatusOK, body[:])
			}
		})
	case OpPut:
		s.set.SubmitPut(req.Key, req.Val, func(r shard.BatchResult) {
			if r.Err != nil {
				pc.completeErr(seq, r.Err)
				return
			}
			pc.complete(seq, StatusOK, nil)
		})
	case OpDel:
		s.set.SubmitDel(req.Key, func(r shard.BatchResult) {
			switch {
			case r.Err != nil:
				pc.completeErr(seq, r.Err)
			case !r.OK:
				pc.complete(seq, StatusNotFound, nil)
			default:
				pc.complete(seq, StatusOK, nil)
			}
		})
	default:
		t := task{seq: seq, req: req}
		select {
		case pc.tasks <- t:
		default:
			if pc.spawned == cap(pc.sem) {
				pc.tasks <- t
				return
			}
			pc.spawned++
			pc.handlers.Add(1)
			go pc.handle(t)
		}
	}
}

// handle is one handler goroutine: it serves t, then every task handed
// to it, until the reader closes the task channel.
func (pc *pipeConn) handle(t task) {
	defer pc.handlers.Done()
	for ok := true; ok; t, ok = <-pc.tasks {
		f := getFrame()
		b := appendU64(beginFrame(f), t.seq)
		b, crashed := pc.s.handleReq(b, t.req, pc.cs)
		f.b = finishFrame(b)
		pc.push(f, crashed)
	}
}

// handleReq executes one decoded request that is not a single-key data
// op (dispatch completes those itself), appending its response to out;
// the bool reports a successful OpCrash. Failures carry the status
// errStatus classifies, so the client rebuilds the typed error.
func (s *Server) handleReq(out []byte, req Request, cs *connSnaps) ([]byte, bool) {
	fail := func(err error) []byte {
		return EncodeResponse(out, errStatus(err), []byte(err.Error()))
	}
	switch req.Op {
	case OpMGet, OpMPut, OpMDel:
		return s.handleBatch(out, req), false
	case OpScan:
		return s.handleScan(out, req, fail), false
	case OpSnapScan:
		return s.handleSnapScan(out, req, cs, fail), false
	case OpScrub:
		return s.handleScrub(out, req, fail), false
	case OpInject:
		injected, capable, err := s.set.InjectFaults(int64(req.Key), int(req.Val))
		if err != nil {
			return fail(err), false
		}
		// Capability info rides with the count: injected(8) capable(8)
		// total(8), so "0 injected" is distinguishable as "nothing live to
		// corrupt yet, retry" (capable > 0) vs "these backends cannot
		// inject" (capable == 0, retrying is futile).
		var body [24]byte
		binary.BigEndian.PutUint64(body[0:], uint64(injected))
		binary.BigEndian.PutUint64(body[8:], uint64(capable))
		binary.BigEndian.PutUint64(body[16:], uint64(s.set.Len()))
		return EncodeResponse(out, StatusOK, body[:]), false
	case OpStats:
		body, err := json.Marshal(s.set.Stats())
		if err != nil {
			return fail(err), false
		}
		return EncodeResponse(out, StatusOK, body), false
	case OpSync:
		if err := s.set.Sync(); err != nil {
			return fail(err), false
		}
		return EncodeResponse(out, StatusOK, nil), false
	case OpCrash:
		if err := s.set.CrashSave(int64(req.Key)); err != nil {
			return fail(err), false
		}
		return EncodeResponse(out, StatusOK, nil), true
	case OpHello:
		// A HELLO after the first frame is a protocol violation, not a
		// renegotiation.
		return EncodeResponse(out, StatusErr, []byte("server: HELLO only negotiates as a connection's first frame")), false
	default:
		return EncodeResponse(out, StatusErr, []byte(fmt.Sprintf("unknown op %d", req.Op))), false
	}
}

// handleScan executes one SCAN: a globally ordered, cross-shard merged
// range scan of up to limit pairs starting at max(lo, cursor). The
// response body is more(1 B), next-cursor(uint64 BE), then the pairs as
// (key value) uint64 BE records; see doc.go for cursor and consistency
// semantics.
func (s *Server) handleScan(out []byte, req Request, fail func(error) []byte) []byte {
	lo, hi := req.Key, req.Val
	if req.Cursor > lo {
		lo = req.Cursor
	}
	limit := int(req.Limit)
	if req.Limit == 0 || req.Limit > MaxScanPairs {
		limit = MaxScanPairs
	}
	pairs, next, more, err := s.set.Scan(lo, hi, limit)
	if err != nil {
		return fail(err)
	}
	out = append(out, StatusOK)
	if more {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.BigEndian.AppendUint64(out, next)
	for _, pr := range pairs {
		out = binary.BigEndian.AppendUint64(out, pr.K)
		out = binary.BigEndian.AppendUint64(out, pr.V)
	}
	return out
}

// handleSnapScan executes one SNAPSCAN page. snapid 0 with cursor 0
// opens a fresh snapshot on the connection (pinning every shard's
// current generation) and serves its first page; the response names the
// snapshot, and continuations present that snapid with the returned
// cursor. The terminal page (more=0) releases the snapshot, as does any
// page-serving failure that proves it dead (ErrSnapshotTooOld); an
// abandoned scan's pins fall with the connection. snapid 0 with a
// nonzero cursor is a cursor-mode violation — a snapshot continuation
// that lost its snapshot must not silently degrade to a live page.
//
// Response body: snapid(8 B), more(1 B), next-cursor(8 B), then the
// pairs as (key value) uint64 BE records.
func (s *Server) handleSnapScan(out []byte, req Request, cs *connSnaps, fail func(error) []byte) []byte {
	lo, hi := req.Key, req.Val
	limit := int(req.Limit)
	if req.Limit == 0 || req.Limit > MaxScanPairs {
		limit = MaxScanPairs
	}
	id := req.SnapID
	var sn *shard.SetSnapshot
	if id == 0 {
		if req.Cursor != 0 {
			return fail(fmt.Errorf("server: snapshot continuation (cursor %d) without its snapshot id: %w", req.Cursor, ErrCursorMode))
		}
		opened, err := s.set.OpenSnapshot()
		if err != nil {
			return fail(err)
		}
		id, err = cs.add(opened)
		if err != nil {
			opened.Release()
			return fail(err)
		}
		sn = opened
	} else if sn = cs.get(id); sn == nil {
		return fail(fmt.Errorf("server: snapshot %d is not open on this connection: %w", id, ErrCursorMode))
	}
	if req.Cursor > lo {
		lo = req.Cursor
	}
	pairs, next, more, err := sn.Scan(lo, hi, limit)
	if err != nil {
		if errors.Is(err, ErrSnapshotTooOld) {
			cs.remove(id) // the pin is gone; drop the table entry too
		}
		return fail(err)
	}
	if !more {
		cs.remove(id) // terminal page: the scan is complete, release the pins
	}
	out = append(out, StatusOK)
	out = binary.BigEndian.AppendUint64(out, id)
	if more {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	out = binary.BigEndian.AppendUint64(out, next)
	for _, pr := range pairs {
		out = binary.BigEndian.AppendUint64(out, pr.K)
		out = binary.BigEndian.AppendUint64(out, pr.V)
	}
	return out
}

// handleScrub executes one SCRUB. Mode 0 reads the maintenance
// subsystem's health without scrubbing anything; mode 1 additionally
// triggers a full pass on every shard — run as bounded incremental
// steps interleaved with each shard's client traffic, so even an
// operator-triggered pass never stalls the pool — and waits for it. The
// response body is the ScrubStatus JSON.
func (s *Server) handleScrub(out []byte, req Request, fail func(error) []byte) []byte {
	var st ScrubStatus
	switch req.Key {
	case 0:
	case 1:
		rep, err := s.set.Scrub()
		if err != nil {
			return fail(err)
		}
		st.Ran = true
		st.Report = rep
	default:
		return EncodeResponse(out, StatusErr, []byte(fmt.Sprintf("unknown scrub mode %d", req.Key)))
	}
	st.Health = s.set.ScrubHealth()
	body, err := json.Marshal(st)
	if err != nil {
		return EncodeResponse(out, StatusErr, []byte(err.Error()))
	}
	return EncodeResponse(out, StatusOK, body)
}

// batchOpsPool recycles the shard.BatchOp staging slice handleBatch
// builds per MGET/MPUT/MDEL; Set.Batch consumes it before returning,
// so the slice is free again by the time the response encodes.
var batchOpsPool = sync.Pool{New: func() any { return new([]shard.BatchOp) }}

// handleBatch executes one MGET/MPUT/MDEL. The ops are partitioned by
// shard and each shard's slice commits as one transaction; the response
// carries a per-op record in request order (see doc.go for the body
// grammar).
func (s *Server) handleBatch(out []byte, req Request) []byte {
	opsp := batchOpsPool.Get().(*[]shard.BatchOp)
	ops := (*opsp)[:0]
	for i, k := range req.Keys {
		switch req.Op {
		case OpMGet:
			ops = append(ops, shard.BatchOp{Kind: shard.BatchGet, K: k})
		case OpMPut:
			ops = append(ops, shard.BatchOp{Kind: shard.BatchPut, K: k, V: req.Vals[i]})
		case OpMDel:
			ops = append(ops, shard.BatchOp{Kind: shard.BatchDel, K: k})
		}
	}
	res := s.set.Batch(ops)
	*opsp = ops[:0]
	batchOpsPool.Put(opsp)
	out = append(out, StatusOK)
	for _, r := range res {
		switch {
		case r.Err != nil:
			out = append(out, BatchErr)
		case !r.OK && req.Op != OpMPut:
			out = append(out, BatchNotFound)
		default:
			out = append(out, BatchOK)
		}
		if req.Op == OpMGet {
			out = binary.BigEndian.AppendUint64(out, r.V)
		}
	}
	return out
}
