package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store"
)

// Batch op kinds (BatchOp.Kind): the store's own op kinds.
const (
	BatchGet = store.OpGet
	BatchPut = store.OpPut
	BatchDel = store.OpDel
)

// Worker operations. A single data op's request carries its BatchOp kind
// as its op, so the worker runs it exactly as it runs one batch op.
const (
	opGet = BatchGet
	opPut = BatchPut
	opDel = BatchDel
)

const (
	opBatch uint8 = iota + BatchDel + 1 // a client-supplied group of Get/Put/Del for this shard
	opScan                              // one scan chunk on the owner (repairing) read path
	opStats
	opSync      // save this shard durably
	opCrash     // persist a crash image of this shard
	opScrub     // a full pass: bounded steps interleaved with requests
	opScrubStep // one bounded step of the shard's background maintenance
	opInject    // corrupt a random live object (fault-injection hook)
	opSnapOpen  // pin the shard's current generation (Store.OpenSnapshot)
)

// BatchOp is one operation inside a batch.
type BatchOp struct {
	Kind uint8
	K, V uint64
}

// BatchResult is one operation's outcome inside a batch: V/OK as for the
// single-op API, Err set only when the op itself failed (after the batch
// fell back to per-op transactions — a batch that commits as a group has
// no per-op errors).
type BatchResult struct {
	V   uint64
	OK  bool
	Err error
}

type request struct {
	op    uint8
	k, v  uint64 // key/value; for opScan, the lo/hi bounds
	max   int    // opScan: chunk pair cap
	seed  int64
	ops   []BatchOp       // opBatch
	snap  *store.Snapshot // opScan: the pinned snapshot to resolve reads at; nil reads live
	reply chan response
	// done is the asynchronous completion path: when set (submit), the
	// worker invokes it exactly once with the response instead of
	// sending on reply. It runs on the worker goroutine (or the
	// submitter's, when the shard is already closed), so it must be
	// non-blocking — the server's pipelined connections reserve
	// completion-buffer capacity for every in-flight op to guarantee
	// that.
	done func(response)
}

// deliver answers req exactly once, through whichever completion path it
// carries.
func (req *request) deliver(r response) {
	if req.done != nil {
		req.done(r)
		return
	}
	req.reply <- r
}

// dataOps returns the data operations req carries: its batch, or its one
// op staged in one.
func (req *request) dataOps(one *[1]BatchOp) []BatchOp {
	if req.op == opBatch {
		return req.ops
	}
	one[0] = BatchOp{Kind: req.op, K: req.k, V: req.v}
	return one[:]
}

type response struct {
	v     uint64
	ok    bool
	err   error
	batch []BatchResult   // opBatch
	pairs []Pair          // opScan
	snap  *store.Snapshot // opSnapOpen
	stats ShardStats
	scrub pangolin.ScrubReport
}

// replyPool recycles the one-shot response channels send and trySend
// hand out: each carries exactly one response, so the channel is empty
// and reusable the moment its receiver has read it. Recycling is the
// receiver's job, after that single receive; a channel whose receiver
// walks away (the maintenance scheduler's shutdown path) is simply
// dropped to the GC — never recycled with a response still buffered.
var replyPool = sync.Pool{
	New: func() any { return make(chan response, 1) },
}

func getReply() chan response   { return replyPool.Get().(chan response) }
func putReply(ch chan response) { replyPool.Put(ch) }

// batchResPool recycles []BatchResult backing arrays. Producers (the
// worker's group commit and batch paths) assign every element, so a
// recycled slice needs no clearing; consumers copy what they keep and
// recycle after the copy — BatchResult values delivered to callers are
// always copies, never views into pooled memory.
var batchResPool = sync.Pool{
	New: func() any { return (*[]BatchResult)(nil) },
}

// maxPooledBatchResults caps what recycles, matching the protocol's
// MaxBatchOps so one oversized slice cannot pin memory in the pool.
const maxPooledBatchResults = 4096

func getBatchResults(n int) []BatchResult {
	if p, _ := batchResPool.Get().(*[]BatchResult); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]BatchResult, n)
}

func putBatchResults(s []BatchResult) {
	if cap(s) == 0 || cap(s) > maxPooledBatchResults {
		return
	}
	s = s[:0]
	batchResPool.Put(&s)
}

// readGroup counts one family of gated reads (GETs, scan chunks, snapshot
// scan chunks), touched from many reader goroutines.
type readGroup struct {
	served    atomic.Uint64 // reads or chunks served on the fast path
	items     atomic.Uint64 // what they carried: hits (GETs) or pairs (chunks)
	fallbacks atomic.Uint64 // bounced to the worker: gate busy
	faults    atomic.Uint64 // bounced to the worker: fault needing repair
}

func (g *readGroup) load() (served, items, fallbacks, faults uint64) {
	return g.served.Load(), g.items.Load(), g.fallbacks.Load(), g.faults.Load()
}

// worker owns one shard: its store.Store and the only goroutine that
// ever mutates it (§3.4 single-writer discipline, generalized — every
// backend's Store belongs to one owner goroutine). It also owns the
// shard's durable files via the store's Save/CrashSave, so saves and
// data batches cannot interleave.
//
// The worker group-commits: after taking a request it opportunistically
// drains whatever else is queued and executes every pending PUT/DEL/GET
// for the shard as one atomic store.Apply batch — one pool transaction
// for the pangolin backend, one committed log append for the log
// backend — then answers each waiter individually. The applied batch is
// the linearization point for everything in the group. If the batch
// fails, every request is retried on its own, so one poisoned op cannot
// take its batchmates down.
type worker struct {
	idx      int
	st       store.Store
	maxBatch int
	ordered  bool // the store's Scan yields ascending keys

	// injector serves INJECT, type-asserted once at construction; nil
	// when the backend cannot inject (reported as "nothing injected").
	// healer serves withHeal's retry the same way; nil when the backend
	// has nothing to re-verify.
	injector store.FaultInjector
	healer   store.Reverifier

	// Concurrent verified-read fast path (gatedRead). view is the store's
	// ReadView handle; callers' goroutines run verified reads
	// on it directly, holding gate's read side. The worker takes the
	// write side (withGate) around every store access (batches, saves,
	// crash images, scrubs), so readers run in parallel with each other
	// and never overlap a mutation. gatedRead and withGate are the only
	// functions that touch gate.
	gate sync.RWMutex
	view store.View

	// Gated-read counters per caller family. Snapshot chunks served by
	// the worker count into snapReads.served too: snap_scans covers both
	// paths.
	getReads, scanReads, snapReads readGroup

	// scrubBackoffs counts maintenance steps the scheduler skipped
	// because this worker was busy (queued requests, or the enqueue
	// would have blocked) — the backpressure signal that traffic always
	// wins over the scrubber. Touched from the scheduler goroutine.
	scrubBackoffs atomic.Uint64

	// Shutdown protocol: mu covers only the closed flag's transition and
	// sender registration — never a channel send — so stop() cannot
	// wedge behind a full queue, and senders cannot wedge behind a
	// stop() that is waiting for the queue to drain. closed is atomic so
	// gated readers check it without taking mu.
	mu      sync.RWMutex
	closed  atomic.Bool
	senders sync.WaitGroup
	reqs    chan request
	exited  chan struct{}

	// c holds the counters only the worker goroutine touches; opStats
	// adds the readers' atomics and the store's gauges to a copy.
	c       Counters
	scratch []request  // loop-local drain buffer
	opsBuf  []store.Op // flattenGroup scratch, reused per group
	oneOp   [1]store.Op

	fullScrub *fullScrubJob // touched only by the worker goroutine
}

// fullScrubJob is an in-progress SCRUB pass: a fresh scrub pass stepped
// to completion by the worker loop, with queued client requests served
// between steps — the full pass is a fixpoint of bounded steps, never a
// stop-the-world sweep. Requests that arrive while a pass is running
// join as waiters and share its report.
type fullScrubJob struct {
	sc      store.ScrubPass
	total   pangolin.ScrubReport
	waiters []chan response
}

func newWorker(idx int, st store.Store, view store.View, queueLen, maxBatch int) *worker {
	w := &worker{
		idx:      idx,
		st:       st,
		view:     view,
		ordered:  st.Ordered(),
		maxBatch: maxBatch,
		reqs:     make(chan request, queueLen),
		exited:   make(chan struct{}),
	}
	w.injector, _ = st.(store.FaultInjector)
	w.healer, _ = st.(store.Reverifier)
	go w.loop()
	return w
}

// errShuttingDown is a stopped worker's typed refusal.
func (w *worker) errShuttingDown() error {
	return fmt.Errorf("shard %d: %w", w.idx, ErrShuttingDown)
}

// gatedRead runs read against the store's view on the caller's
// goroutine, under the reader gate's read side — Pangolin's concurrent
// verified read (§3.3) — and counts it into g. read reports how many
// reads or chunks it served and the hits or pairs they carried.
//
// served=false sends the caller to the worker queue, whose repairing
// read path serializes with everything else: the worker holds or wants
// the gate (a group commit, save, scrub or recovery window), or read
// failed on a fault only the worker may repair.
// Readers only ever TryRLock, which is what keeps the fast path
// deadlock-free. A stopped worker is served
// with the typed ErrShuttingDown, and a typed snapshot verdict
// (ErrSnapshotTooOld) as is: the worker cannot improve on either.
func (w *worker) gatedRead(g *readGroup, read func(store.View) (n, items uint64, err error)) (served bool, err error) {
	if !w.gate.TryRLock() {
		g.fallbacks.Add(1)
		return false, nil
	}
	// Checked under the gate: Set.Abandon closes the store (releasing
	// the pool's memory) under the write side after flagging closed, so
	// a reader past this check reads a live store.
	if w.closed.Load() {
		w.gate.RUnlock()
		return true, w.errShuttingDown()
	}
	n, items, err := read(w.view)
	w.gate.RUnlock()
	switch {
	case err == nil:
		g.served.Add(n)
		g.items.Add(items)
		return true, nil
	case errors.Is(err, store.ErrSnapshotTooOld):
		return true, err
	default:
		g.faults.Add(1)
	}
	return false, nil
}

// readGets serves an all-GET slice on the gated read path with one gate
// hold, writing every element of res. Like the worker's read-only
// groups, the lookups are per-op (a read-only slice has no transaction
// and no group atomicity to preserve); any error bounces the entire
// slice to the worker.
func (w *worker) readGets(ops []BatchOp, res []BatchResult) (served bool, err error) {
	return w.gatedRead(&w.getReads, func(view store.View) (n, hits uint64, err error) {
		for i, op := range ops {
			v, ok, err := view.Get(op.K)
			if err != nil {
				return 0, 0, err
			}
			res[i] = BatchResult{V: v, OK: ok}
			if ok {
				hits++
			}
		}
		return uint64(len(ops)), hits, nil
	})
}

// scanCollect gathers the up-to-max smallest in-range pairs from live —
// as of sn's pinned generation when sn is set — ascending. Ordered
// sources stream ascending already, so the scan early-stops at max
// pairs; unordered sources (hashmap, the log backend's index) must visit
// the whole range, so the collector keeps a sorted bound of the max
// smallest seen (bounded memory, one full pass per chunk).
func scanCollect(live store.View, ordered bool, sn *store.Snapshot, lo, hi uint64, max int) ([]Pair, error) {
	if max <= 0 || lo > hi {
		return nil, nil
	}
	if sn != nil {
		ordered = sn.Ordered()
	}
	out := make([]Pair, 0, min(max, 64))
	var fn func(k, v uint64) bool
	if ordered {
		fn = func(k, v uint64) bool {
			out = append(out, Pair{K: k, V: v})
			return len(out) < max
		}
	} else {
		fn = func(k, v uint64) bool {
			i := sort.Search(len(out), func(i int) bool { return out[i].K >= k })
			if len(out) == max {
				if i == max {
					return true // larger than every kept pair
				}
				out = out[:max-1] // drop the current largest
			}
			out = append(out, Pair{})
			copy(out[i+1:], out[i:])
			out[i] = Pair{K: k, V: v}
			return true
		}
	}
	var err error
	if sn != nil {
		err = sn.Scan(live, lo, hi, fn)
	} else {
		err = live.Scan(lo, hi, fn)
	}
	return out, err
}

// send enqueues req and returns its reply channel (see submit).
func (w *worker) send(req request) chan response {
	req.reply = getReply()
	w.submit(req)
	return req.reply
}

// do enqueues req and waits for the response, recycling the reply
// channel after its single receive.
func (w *worker) do(req request) response {
	ch := w.send(req)
	r := <-ch
	putReply(ch)
	return r
}

// submit enqueues req; the worker answers it exactly once (deliver) when
// it executes, or submit does at once, with a typed ErrShuttingDown —
// never a silent drop — when the shard is already shutting down. The
// closed check and the enqueue are decoupled: the read lock registers
// this sender while the worker is still open, then is released before
// the (possibly blocking) channel send. stop() waits for registered
// senders after flagging closed, so the channel is never closed under a
// send. A full queue blocks the send; that is the backpressure signal
// the server's pipelined reader relies on.
func (w *worker) submit(req request) {
	w.mu.RLock()
	if w.closed.Load() {
		w.mu.RUnlock()
		req.deliver(response{err: w.errShuttingDown()})
		return
	}
	w.senders.Add(1)
	w.mu.RUnlock()
	w.reqs <- req // may block on a full queue; the loop keeps draining
	w.senders.Done()
}

// trySend is send without ever blocking: it fails instead of waiting
// when the worker is shutting down or the queue is full. The maintenance
// scheduler uses it so a scrub step can never back-pressure client
// traffic — the reverse is the rule.
func (w *worker) trySend(req request) (chan response, bool) {
	req.reply = getReply()
	w.mu.RLock()
	if w.closed.Load() {
		w.mu.RUnlock()
		putReply(req.reply)
		return nil, false
	}
	w.senders.Add(1)
	w.mu.RUnlock()
	defer w.senders.Done()
	select {
	case w.reqs <- req:
		return req.reply, true
	default:
		putReply(req.reply)
		return nil, false
	}
}

// stop shuts the worker down after every enqueued request has been
// answered; the store is safe to close once stop returns.
func (w *worker) stop() {
	w.mu.Lock()
	if w.closed.Load() {
		w.mu.Unlock()
		<-w.exited
		return
	}
	w.closed.Store(true)
	w.mu.Unlock()
	// In-flight senders finish their enqueues (the loop is still
	// draining, so none of them blocks forever), then the channel close
	// lets the loop answer the tail and exit.
	w.senders.Wait()
	close(w.reqs)
	<-w.exited
}

// groupable reports whether op joins a group commit; the rest (stats,
// save, crash, scrub) are barriers that flush the group first.
func groupable(op uint8) bool {
	return op == opPut || op == opGet || op == opDel || op == opBatch
}

// opCount is the number of data operations req contributes to a group.
func opCount(req request) int {
	if req.op == opBatch {
		return len(req.ops)
	}
	return 1
}

func (w *worker) loop() {
	defer close(w.exited)
	defer w.failScrubWaiters()
	var next request // a drained request that starts the next round
	hasNext := false
	for {
		var req request
		switch {
		case hasNext:
			req, hasNext = next, false
		case w.fullScrub != nil:
			// A full scrub pass is in progress: queued client requests
			// always run first (traffic wins), and only an idle moment
			// advances the pass by one bounded step.
			select {
			case r, ok := <-w.reqs:
				if !ok {
					return
				}
				req = r
			default:
				w.stepFullScrub()
				continue
			}
		default:
			var ok bool
			req, ok = <-w.reqs
			if !ok {
				return
			}
		}
		if !groupable(req.op) {
			if req.op == opScrub {
				w.startFullScrub(req.reply)
			} else {
				var resp response
				w.withGate(func() { resp = w.handle(req) })
				req.deliver(resp)
			}
			continue
		}
		// Opportunistic group: drain whatever is already queued, up to
		// maxBatch ops. A barrier op ends the group and, like a request
		// that would push the group past maxBatch, starts the next
		// round instead — so the barrier runs after the group, and no
		// transaction ever exceeds maxBatch operations. When the queue
		// runs dry first and the group already holds two or more ops (a
		// burst is under way), the worker yields once (Settled) unless a
		// full scrub pass is waiting for idle moments: submitters the
		// same burst made runnable then join this group, and their
		// per-commit costs (log persist, fence, parity fold) amortize
		// over it. A lone op commits at once: nothing hints at company,
		// and a yield with a processor idle wakes a thread to take it.
		group := append(w.scratch[:0], req)
		n := opCount(req)
		yieldedAt := 0 // the group's op count when the worker yielded
	drain:
		for n < w.maxBatch {
			select {
			case r, open := <-w.reqs:
				if !open {
					break drain
				}
				if !groupable(r.op) || n+opCount(r) > w.maxBatch {
					next, hasNext = r, true
					break drain
				}
				group = append(group, r)
				n += opCount(r)
			default:
				if yieldedAt > 0 || n == 1 || w.fullScrub != nil || Settled(w.reqs) {
					break drain
				}
				yieldedAt = n
			}
		}
		if yieldedAt > 0 && n > yieldedAt {
			w.c.CommitWaits++
		}
		w.withGate(func() { w.runGroup(group) })
		w.scratch = group[:0]
	}
}

// Settled is the one batching rule of this module's three queue
// consumers — a shard worker gathering its group commit, and the wire
// writers (server.Client's and the server connection's writeLoop)
// deciding when to flush: stop gathering only once the queue has gone
// quiet. A non-empty queue means more work is coming. An empty one gets
// one yield of the processor first: the goroutines the same burst made
// runnable (callers woken by a burst of replies, the submitters of one
// read's requests) then queue their work and join the same group or
// write, so a burst pays one commit or one syscall instead of one each.
// A yield is one runtime.Gosched, about 100 ns uncontended; no timer
// runs and nothing waits for company.
func Settled[T any](q chan T) bool {
	if len(q) > 0 {
		return false
	}
	runtime.Gosched()
	return len(q) == 0
}

// startFullScrub begins (or joins) a full scrub pass for the waiter. The
// loop steps the pass whenever the queue is idle; every waiter gets the
// completed pass's merged report.
func (w *worker) startFullScrub(reply chan response) {
	if w.fullScrub == nil {
		w.fullScrub = &fullScrubJob{
			sc:    w.st.NewScrubPass(),
			total: pangolin.ScrubReport{ChecksumsVerified: w.st.ChecksumsVerified()},
		}
	}
	w.fullScrub.waiters = append(w.fullScrub.waiters, reply)
}

// stepFullScrub advances the in-progress pass one bounded step under the
// reader gate's write side, answering the waiters once the gate is
// released when the pass completes (or fails).
func (w *worker) stepFullScrub() {
	job := w.fullScrub
	var rep pangolin.ScrubReport
	var done bool
	var err error
	w.withGate(func() { rep, done, err = job.sc.Step() })
	job.total.Add(rep)
	if err == nil {
		w.c.ScrubSteps++
		if !done {
			return
		}
		w.c.LastFullPass = time.Now().Unix()
	} else {
		w.c.ScrubErrors++
	}
	w.fullScrub = nil
	for _, reply := range job.waiters {
		reply <- response{scrub: job.total, err: err}
	}
}

// failScrubWaiters answers any pass still in progress at shutdown.
func (w *worker) failScrubWaiters() {
	if w.fullScrub == nil {
		return
	}
	for _, reply := range w.fullScrub.waiters {
		reply <- response{err: w.errShuttingDown()}
	}
	w.fullScrub = nil
}

// withGate runs one unit of the worker's work — a group, a non-groupable
// request, a full-scrub step, and after the worker stops the store's
// Close — with the reader gate's write side held, excluding fast-path
// readers for the duration of the store access. It is the only place
// the write side is taken: around execution only, never around the
// queue receive, so readers get the gate back between every unit.
func (w *worker) withGate(fn func()) {
	w.gate.Lock()
	defer w.gate.Unlock()
	fn()
}

// flattenGroup lowers a group of requests into one store.Apply batch,
// appending to ops (the worker's reusable scratch).
func flattenGroup(ops []store.Op, group []request) ([]store.Op, error) {
	var one [1]BatchOp
	for i := range group {
		for _, op := range group[i].dataOps(&one) {
			if op.Kind != BatchGet && op.Kind != BatchPut && op.Kind != BatchDel {
				return nil, fmt.Errorf("unknown batch kind %d", op.Kind)
			}
			ops = append(ops, store.Op{Kind: op.Kind, K: op.K, V: op.V})
		}
	}
	return ops, nil
}

// runGroup executes a group of data requests. Groups with at least one
// mutation and more than one op run as a single atomic store.Apply
// batch; read-only or single-op groups take the plain per-op path (GETs
// need no transaction at all).
func (w *worker) runGroup(group []request) {
	// A batch request larger than the group cap arrives alone in its
	// group (opCount(req) ≥ maxBatch keeps the drain from adding to it):
	// run it as maxBatch-sized groups of one chunk each and merge the
	// per-op results, so the documented maxBatch bound holds for client
	// batches too. Atomicity is then per chunk, which is what doc.go
	// promises for batches beyond the cap.
	if len(group) == 1 && group[0].op == opBatch && len(group[0].ops) > w.maxBatch {
		req := group[0]
		out := make([]BatchResult, 0, len(req.ops))
		for start := 0; start < len(req.ops); start += w.maxBatch {
			w.runGroup([]request{{
				op:  opBatch,
				ops: req.ops[start:min(start+w.maxBatch, len(req.ops))],
				done: func(r response) {
					out = append(out, r.batch...)
					putBatchResults(r.batch) // copied; the chunk's slice is free
				},
			}})
		}
		req.deliver(response{batch: out})
		return
	}
	var one [1]BatchOp
	muts, total := 0, 0
	for i := range group {
		for _, op := range group[i].dataOps(&one) {
			total++
			if op.Kind != BatchGet {
				muts++
			}
		}
	}
	if muts == 0 || total <= 1 {
		for _, r := range group {
			r.deliver(w.handle(r))
		}
		return
	}
	ops, err := flattenGroup(w.opsBuf[:0], group)
	var results []store.Result
	if err == nil {
		results, err = w.st.Apply(ops)
	}
	// Apply consumes ops synchronously (the store contract), so the
	// flatten scratch is free for the next group the moment it returns;
	// results likewise stay valid only until the next Apply, which is
	// fine — they are copied into responses below, before this worker
	// touches the store again.
	w.opsBuf = ops[:0]
	if err != nil {
		// The group's batch aborted (nothing was applied). Retry each
		// request on its own so one bad op can't poison its batchmates;
		// each waiter gets its op's own verdict.
		w.c.GroupFallbacks++
		for _, r := range group {
			r.deliver(w.handle(r))
		}
		return
	}
	w.c.Batches++
	w.c.BatchedOps += uint64(total)
	for _, r := range group {
		res := results[:opCount(r)]
		results = results[len(res):]
		for j, op := range r.dataOps(&one) {
			w.count(op.Kind, res[j].OK)
		}
		if r.op != opBatch {
			r.deliver(response{v: res[0].V, ok: res[0].OK})
			continue
		}
		br := getBatchResults(len(res))
		for j := range res {
			br[j] = BatchResult{V: res[j].V, OK: res[j].OK}
		}
		r.deliver(response{batch: br})
	}
}

// count tallies one executed data operation.
func (w *worker) count(kind uint8, ok bool) {
	switch kind {
	case BatchGet:
		w.c.Gets++
		if ok {
			w.c.Hits++
		}
	case BatchPut:
		w.c.Puts++
	case BatchDel:
		w.c.Dels++
	}
}

// execOp runs one data operation as its own store access — the per-op
// path of read-only and single-op groups and of a group whose batch
// failed — with the one-heal retry, its counters, and its own verdict.
func (w *worker) execOp(op BatchOp) BatchResult {
	var r BatchResult
	switch op.Kind {
	case BatchGet:
		r.Err = w.withHeal(func() (err error) {
			r.V, r.OK, err = w.st.Get(op.K)
			return err
		})
	case BatchPut:
		r.Err = w.withHeal(func() error {
			_, err := w.applyOne(store.Op{Kind: store.OpPut, K: op.K, V: op.V})
			return err
		})
		r.OK = r.Err == nil
	case BatchDel:
		r.Err = w.withHeal(func() error {
			res, err := w.applyOne(store.Op{Kind: store.OpDel, K: op.K})
			r.OK = res.OK
			return err
		})
	default:
		r.Err = fmt.Errorf("shard %d: unknown batch kind %d", w.idx, op.Kind)
	}
	w.count(op.Kind, r.OK)
	if r.Err != nil {
		w.c.Errors++
	}
	return r
}

// withHeal runs one data operation with a single repair-retry: if the
// op fails on CORRUPTION — a checksum mismatch, a poison hit, or the
// typed invalid-OID failure a scribbled pointer produces when a
// traversal follows it before any verification could flag its object
// (the Table 4 vulnerability window) — the store forgets which objects
// it has verified and the op runs once more. The retry verifies every
// object on its path, so the owner path's read-verify-repair restores
// the damaged object from parity and the client never sees the
// corruption; damage beyond the redundancy fails the retry too, and its
// typed error returns after that one re-verified traversal. A backend
// with nothing to re-verify (logstore checks a CRC on every read; a
// pangolin mode without checksums) returns its error as is, as do
// non-corruption failures (out of space, shutdown).
//
// The caller holds the reader gate's write side (handle runs inside
// withGate) for both attempts.
func (w *worker) withHeal(fn func() error) error {
	err := fn()
	if err == nil || (!pangolin.IsCorruption(err) && !pangolin.IsPoison(err)) ||
		w.healer == nil || !w.healer.ForgetVerified() {
		return err
	}
	before := w.healer.Repaired()
	err = fn()
	w.c.BgRepairs += w.healer.Repaired() - before
	return err
}

// applyOne runs a single mutation as its own one-op store batch,
// staged in the worker's inline scratch (the worker goroutine runs one
// Apply at a time, so the array cannot be in use twice).
func (w *worker) applyOne(op store.Op) (store.Result, error) {
	w.oneOp[0] = op
	results, err := w.st.Apply(w.oneOp[:])
	if err != nil {
		return store.Result{}, err
	}
	return results[0], nil
}

func (w *worker) handle(req request) response {
	switch req.op {
	case opGet, opPut, opDel:
		r := w.execOp(BatchOp{Kind: req.op, K: req.k, V: req.v})
		return response{v: r.V, ok: r.OK, err: r.Err}
	case opBatch:
		res := getBatchResults(len(req.ops))
		for i, op := range req.ops {
			res[i] = w.execOp(op)
		}
		return response{batch: res}
	case opScan:
		// The worker-path scan chunk: the owner store's repairing reads,
		// serialized with batches like every worker op, with the pinned-
		// generation overlay applied when the chunk belongs to a snapshot.
		// A typed snapshot verdict is final; read faults get the usual
		// one-heal retry.
		var pairs []Pair
		err := w.withHeal(func() (e error) {
			pairs, e = scanCollect(w.st, w.ordered, req.snap, req.k, req.v, req.max)
			return e
		})
		if req.snap == nil {
			w.c.Scans++
			w.c.ScanPairs += uint64(len(pairs))
		} else if err == nil {
			w.snapReads.served.Add(1)
			w.snapReads.items.Add(uint64(len(pairs)))
		}
		if err != nil && !errors.Is(err, store.ErrSnapshotTooOld) {
			w.c.Errors++
		}
		return response{pairs: pairs, err: err}
	case opSnapOpen:
		// Pin the shard's current committed generation. Routed through the
		// worker so the pin lands between group commits, never mid-batch —
		// the version buffer's staging decision is then stable for every
		// whole batch after the pin.
		sn, err := w.st.OpenSnapshot()
		if err != nil {
			w.c.Errors++
			return response{err: fmt.Errorf("shard %d: %w", w.idx, err)}
		}
		return response{snap: sn}
	case opStats:
		c := w.c
		c.FastGets, c.FastHits, c.FastFallbacks, c.FastFaults = w.getReads.load()
		c.FastScans, c.FastScanPairs, c.ScanFallbacks, c.ScanFaults = w.scanReads.load()
		// Snapshot chunks bounce under the scan counters.
		var snapFallbacks, snapFaults uint64
		c.SnapScans, c.SnapScanPairs, snapFallbacks, snapFaults = w.snapReads.load()
		c.ScanFallbacks += snapFallbacks
		c.ScanFaults += snapFaults
		c.ScrubBackoffs = w.scrubBackoffs.Load()
		sst := w.st.Stats()
		c.Objects = sst.Objects
		c.Bytes = sst.Bytes
		c.Segments = sst.Segments
		c.Compactions = sst.Compactions
		c.MergedRecords = sst.MergedRecords
		c.DeadRecords = sst.DeadRecords
		c.Quarantined = sst.QuarantinedSegments
		c.SnapshotPins = sst.SnapshotPins
		c.VersionsHeld = sst.VersionsRetained
		return response{stats: ShardStats{Index: w.idx, Backend: sst.Backend, Counters: c}}
	case opSync:
		return response{err: w.st.Save()}
	case opCrash:
		// Each shard's crash image draws from its own seed.
		return response{err: w.st.CrashSave(req.seed + int64(w.idx))}
	case opScrubStep:
		// One bounded step of the shard's background maintenance — the
		// maintenance scheduler's unit of work. Repairs it makes count
		// as background repairs; a completed pass stamps the shard's
		// scrub health.
		rep, done, err := w.st.ScrubStep()
		if err != nil {
			// The scheduler fires and forgets; the error must not vanish
			// with the reply — scrub_errors is the operator's signal that
			// steps are failing (and the cursor is stuck).
			w.c.ScrubErrors++
			return response{scrub: rep, err: err}
		}
		w.c.ScrubSteps++
		w.c.BgRepairs += uint64(rep.Fixed())
		if done {
			w.c.LastFullPass = time.Now().Unix()
		}
		return response{scrub: rep, ok: done}
	case opInject:
		// Fault-injection hook (§4.6): corrupt one random live object so
		// tests can prove the maintenance subsystem heals a live shard. Backends without the
		// capability (nothing to heal with) inject nothing.
		ok := false
		if w.injector != nil {
			ok = w.injector.InjectFault(req.seed)
		}
		return response{ok: ok}
	default:
		return response{err: fmt.Errorf("shard %d: unknown op %d", w.idx, req.op)}
	}
}
