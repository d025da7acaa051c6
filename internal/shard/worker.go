package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store"
)

// Worker operations.
const (
	opPut uint8 = iota + 1
	opGet
	opDel
	opBatch // a client-supplied group of Get/Put/Del for this shard
	opScan  // one scan chunk on the owner (repairing) read path
	opStats
	opSync      // save this shard durably
	opCrash     // persist a crash image of this shard
	opScrub     // a full pass: bounded steps interleaved with requests
	opScrubStep // one bounded step of the shard's background maintenance
	opInject    // corrupt a random live object (fault-injection hook)
	opSnapOpen  // pin the shard's current generation (store.SnapshotViewer)
	opSnapScan  // one snapshot scan chunk on the owner (repairing) read path
)

// Batch op kinds (BatchOp.Kind).
const (
	BatchGet uint8 = 1
	BatchPut uint8 = 2
	BatchDel uint8 = 3
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
	snap  *store.Snapshot // opSnapScan: the pinned snapshot to resolve reads at
	reply chan response
	// done is the asynchronous completion path: when set (Submit), the
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

type response struct {
	v     uint64
	ok    bool
	err   error
	batch []BatchResult   // opBatch
	pairs []Pair          // opScan / opSnapScan
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

	// Optional backend capabilities, type-asserted once at construction;
	// nil when the backend does not provide them. scrubber serves full
	// SCRUB passes and the repair-retry heal path; injector serves
	// INJECT (nil reports "nothing injected"); snapper serves pinned-
	// generation snapshots (nil answers opSnapOpen with the typed
	// store.ErrSnapshotUnsupported — never a silently weaker scan).
	scrubber store.ScrubRunner
	injector store.FaultInjector
	snapper  store.SnapshotViewer

	// Concurrent verified-read fast path. view is the store's ReadView
	// capability handle; callers' goroutines run verified reads on it
	// directly, holding gate's read side. The worker takes the write
	// side around every store access (batches, saves, crash images,
	// scrubs), so readers run in parallel with each other and never
	// overlap a mutation. Readers only ever TryRLock: if the worker
	// holds or wants the gate — a group commit, a save, a scrub or
	// recovery window — the read falls back to the worker queue instead
	// of blocking, which is also what keeps the fast path deadlock-free.
	// view is nil when Options.SerialReads disabled the fast path or the
	// backend lacks store.ReadViewer.
	gate sync.RWMutex
	view store.View

	// Fast-path counters, touched from many reader goroutines.
	fastGets      atomic.Uint64 // reads served on the fast path
	fastHits      atomic.Uint64 // of those, key present
	fastFallbacks atomic.Uint64 // reads bounced to the worker: gate busy / freeze
	fastFaults    atomic.Uint64 // reads bounced to the worker: fault needing repair

	// Scan chunk counters, touched from many reader goroutines (fast)
	// and the worker (serial; scans/scanPairs below).
	fastScans     atomic.Uint64 // scan chunks served on the fast path
	fastScanPairs atomic.Uint64 // pairs those chunks carried
	scanFallbacks atomic.Uint64 // chunks bounced to the worker: gate busy / freeze
	scanFaults    atomic.Uint64 // chunks bounced to the worker: fault needing repair

	// Snapshot scan chunk counters: chunks resolved at a pinned
	// generation, on either path (fast readers and worker fallback).
	snapScans     atomic.Uint64
	snapScanPairs atomic.Uint64

	// scrubBackoffs counts maintenance steps the scheduler skipped
	// because this worker was busy (queued requests, or the enqueue
	// would have blocked) — the backpressure signal that traffic always
	// wins over the scrubber. Touched from the scheduler goroutine.
	scrubBackoffs atomic.Uint64

	// Shutdown protocol: the lock covers only the closed flag and
	// sender registration — never a channel send — so stop() cannot
	// wedge behind a full queue, and senders cannot wedge behind a
	// stop() that is waiting for the queue to drain.
	mu      sync.RWMutex
	closed  bool
	senders sync.WaitGroup
	reqs    chan request
	exited  chan struct{}

	// Counters, touched only by the worker goroutine.
	gets, puts, dels, hits, errs        uint64
	batches, batchedOps, groupFallbacks uint64
	commitWaits                         uint64     // adaptive-commit windows taken
	scans, scanPairs                    uint64     // worker-path scan chunks
	scratch                             []request  // loop-local drain buffer
	opsBuf                              []store.Op // flattenGroup scratch, reused per group
	oneReq                              [1]request // single-request flatten scratch
	oneOp                               [1]store.Op

	// Adaptive group commit (see the loop): commitWait caps the bounded
	// micro-window the drain may wait for more ops when the queue has
	// been running deep; ewma tracks recent group depth and tunes the
	// window — near 1 under lockstep load, so an idle or
	// latency-sensitive connection never waits at all.
	commitWait time.Duration
	ewma       float64
	waitTimer  *time.Timer

	// Maintenance state, touched only by the worker goroutine.
	scrubSteps       uint64 // scrub steps executed (scheduler + full passes)
	bgRepairs        uint64 // repairs made by scheduler-driven steps and heal passes
	scrubErrs        uint64 // scrub steps/passes that failed
	lastFullPassUnix int64  // wall time the last full pass completed; 0 = never
	fullScrub        *fullScrubJob

	// withHeal futility throttle: when a heal pass fixes nothing, the
	// corruption at that locus is beyond the backend's redundancy and
	// re-running a pass per failing op would stall the shard; heals for
	// the same locus are suppressed for a cooldown. Keyed per failing
	// object/page (so unrelated, recoverable corruption elsewhere still
	// heals immediately), with a bounded map — at the cap, the throttle
	// degrades to shard-global so a storm of distinct unhealable loci
	// cannot turn every op into a full pass either.
	futileHeals   map[uint64]time.Time
	healsThrottle time.Time // shard-global fallback once futileHeals is full
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

func newWorker(idx int, st store.Store, view store.View, queueLen, maxBatch int, commitWait time.Duration) *worker {
	w := &worker{
		idx:        idx,
		st:         st,
		view:       view,
		ordered:    st.Ordered(),
		maxBatch:   maxBatch,
		commitWait: commitWait,
		ewma:       1,
		reqs:       make(chan request, queueLen),
		exited:     make(chan struct{}),
	}
	w.scrubber, _ = st.(store.ScrubRunner)
	w.injector, _ = st.(store.FaultInjector)
	w.snapper, _ = st.(store.SnapshotViewer)
	go w.loop()
	return w
}

// isClosed reports whether stop() has begun.
func (w *worker) isClosed() bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.closed
}

// fastGet attempts to serve a Get on the concurrent fast path: a
// verified read against the store's view from the caller's goroutine,
// under the reader gate. served=false means the caller must route the
// request through the worker (gate contended, freeze window, or a fault
// that needs the worker's repairing read path).
func (w *worker) fastGet(k uint64) (v uint64, ok bool, err error, served bool) {
	if w.view == nil {
		return 0, false, nil, false
	}
	if w.isClosed() {
		return 0, false, fmt.Errorf("shard %d: %w", w.idx, ErrShuttingDown), true
	}
	if !w.gate.TryRLock() {
		w.fastFallbacks.Add(1)
		return 0, false, nil, false
	}
	v, ok, err = w.view.Get(k)
	w.gate.RUnlock()
	if err != nil {
		if pangolin.ReadBusy(err) {
			w.fastFallbacks.Add(1)
		} else {
			w.fastFaults.Add(1)
		}
		return 0, false, nil, false
	}
	w.fastGets.Add(1)
	if ok {
		w.fastHits.Add(1)
	}
	return v, ok, nil, true
}

// fastGetBatch serves an all-GET batch slice on the fast path, taking
// the reader gate once for the whole slice. Like the worker's own
// handling of read-only groups, the lookups are per-op (a read-only
// batch has no transaction and no group atomicity to preserve). Any
// error bounces the entire slice to the worker.
func (w *worker) fastGetBatch(ops []BatchOp) ([]BatchResult, bool) {
	if w.view == nil || w.isClosed() {
		return nil, false
	}
	if !w.gate.TryRLock() {
		w.fastFallbacks.Add(1)
		return nil, false
	}
	res := getBatchResults(len(ops))
	hits := uint64(0)
	for i, op := range ops {
		v, ok, err := w.view.Get(op.K)
		if err != nil {
			w.gate.RUnlock()
			putBatchResults(res)
			if pangolin.ReadBusy(err) {
				w.fastFallbacks.Add(1)
			} else {
				w.fastFaults.Add(1)
			}
			return nil, false
		}
		res[i] = BatchResult{V: v, OK: ok}
		if ok {
			hits++
		}
	}
	w.gate.RUnlock()
	w.fastGets.Add(uint64(len(ops)))
	w.fastHits.Add(hits)
	return res, true
}

// scanChunk returns the up-to-max smallest pairs with keys in [lo, hi],
// ascending. It first attempts the concurrent fast path (a view scan
// under the reader gate on the caller's goroutine); a gate-busy, freeze,
// or fault chunk falls back to the worker queue, whose repairing read
// path serializes with everything else. len(result) < max means the
// shard holds no further pairs in the range.
func (w *worker) scanChunk(lo, hi uint64, max int) ([]Pair, error) {
	if pairs, err, served := w.fastScanChunk(lo, hi, max); served {
		return pairs, err
	}
	r := w.do(request{op: opScan, k: lo, v: hi, max: max})
	return r.pairs, r.err
}

// fastScanChunk attempts one scan chunk on the concurrent fast path,
// holding the reader gate's read side for the duration of the chunk —
// and only the chunk, so a long Set.Scan releases and re-acquires the
// gate every chunk and never starves the worker's group commits.
// served=false means the caller must route the chunk through the worker.
func (w *worker) fastScanChunk(lo, hi uint64, max int) (pairs []Pair, err error, served bool) {
	if w.view == nil {
		return nil, nil, false
	}
	if w.isClosed() {
		return nil, fmt.Errorf("shard %d: %w", w.idx, ErrShuttingDown), true
	}
	if !w.gate.TryRLock() {
		w.scanFallbacks.Add(1)
		return nil, nil, false
	}
	pairs, err = scanCollect(w.view, w.ordered, lo, hi, max)
	w.gate.RUnlock()
	if err != nil {
		if pangolin.ReadBusy(err) {
			w.scanFallbacks.Add(1)
		} else {
			w.scanFaults.Add(1)
		}
		return nil, nil, false
	}
	w.fastScans.Add(1)
	w.fastScanPairs.Add(uint64(len(pairs)))
	return pairs, nil, true
}

// snapScanChunk returns one chunk of a pinned-generation scan — the
// same two-population split as scanChunk: the fast path resolves the
// chunk against the shard's ReadView under the reader gate on the
// caller's goroutine, and a gate-busy, freeze, or fault chunk falls
// back to the worker queue, where the snapshot resolves against the
// owner store's repairing reads.
func (w *worker) snapScanChunk(sn *store.Snapshot, lo, hi uint64, max int) ([]Pair, error) {
	if pairs, err, served := w.fastSnapScanChunk(sn, lo, hi, max); served {
		return pairs, err
	}
	r := w.do(request{op: opSnapScan, snap: sn, k: lo, v: hi, max: max})
	return r.pairs, r.err
}

// fastSnapScanChunk attempts one snapshot chunk on the concurrent fast
// path. A typed snapshot verdict (ErrSnapshotTooOld) is served
// directly — the worker cannot improve on it — while read faults
// bounce to the worker's repairing path as usual.
func (w *worker) fastSnapScanChunk(sn *store.Snapshot, lo, hi uint64, max int) (pairs []Pair, err error, served bool) {
	if w.view == nil {
		return nil, nil, false
	}
	if w.isClosed() {
		return nil, fmt.Errorf("shard %d: %w", w.idx, ErrShuttingDown), true
	}
	if !w.gate.TryRLock() {
		w.scanFallbacks.Add(1)
		return nil, nil, false
	}
	pairs, err = scanCollect(snapScanner{sn: sn, live: w.view}, sn.Ordered(), lo, hi, max)
	w.gate.RUnlock()
	if err != nil {
		if errors.Is(err, store.ErrSnapshotTooOld) {
			return nil, err, true
		}
		if pangolin.ReadBusy(err) {
			w.scanFallbacks.Add(1)
		} else {
			w.scanFaults.Add(1)
		}
		return nil, nil, false
	}
	w.snapScans.Add(1)
	w.snapScanPairs.Add(uint64(len(pairs)))
	return pairs, nil, true
}

// scanner is the ranged-iteration surface scanCollect consumes; both
// store.Store and store.View provide it.
type scanner interface {
	Scan(lo, hi uint64, fn func(k, v uint64) bool) error
}

// snapScanner binds a pinned snapshot to a live read source, giving
// scanCollect the plain ranged-iteration surface it expects while every
// pair resolves at the pinned generation.
type snapScanner struct {
	sn   *store.Snapshot
	live store.View
}

func (s snapScanner) Scan(lo, hi uint64, fn func(k, v uint64) bool) error {
	return s.sn.Scan(s.live, lo, hi, fn)
}

// scanCollect gathers the up-to-max smallest in-range pairs from one
// scan source, ascending. Ordered sources stream ascending already, so
// the scan early-stops at max pairs; unordered sources (hashmap, the
// log backend's index) must visit the whole range, so the collector
// keeps a sorted bound of the max smallest seen (bounded memory, one
// full pass per chunk).
func scanCollect(m scanner, ordered bool, lo, hi uint64, max int) ([]Pair, error) {
	if max <= 0 || lo > hi {
		return nil, nil
	}
	if ordered {
		out := make([]Pair, 0, min(max, 64))
		err := m.Scan(lo, hi, func(k, v uint64) bool {
			out = append(out, Pair{K: k, V: v})
			return len(out) < max
		})
		return out, err
	}
	out := make([]Pair, 0, min(max, 64))
	err := m.Scan(lo, hi, func(k, v uint64) bool {
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
	})
	return out, err
}

// send enqueues req and returns its reply channel. The closed check and
// the enqueue are decoupled: the read lock registers this sender while
// the worker is still open, then is released before the (possibly
// blocking) channel send. stop() waits for registered senders after
// flagging closed, so the channel is never closed under a send.
func (w *worker) send(req request) chan response {
	req.reply = getReply()
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		req.reply <- response{err: fmt.Errorf("shard %d: %w", w.idx, ErrShuttingDown)}
		return req.reply
	}
	w.senders.Add(1)
	w.mu.RUnlock()
	w.reqs <- req // may block on a full queue; the loop keeps draining
	w.senders.Done()
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

// submit enqueues req for asynchronous completion: req.done is invoked
// exactly once with the result — on the worker goroutine when the
// request executes, or synchronously here when the shard is already
// shutting down (typed ErrShuttingDown, never a silent drop). Like
// send, the enqueue may block on a full queue; that is the backpressure
// signal the server's pipelined reader relies on.
func (w *worker) submit(req request) {
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		req.done(response{err: fmt.Errorf("shard %d: %w", w.idx, ErrShuttingDown)})
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
	if w.closed {
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
	if w.closed {
		w.mu.Unlock()
		<-w.exited
		return
	}
	w.closed = true
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
	var carry *request // drained request that would overfill its group
	for {
		var req request
		switch {
		case carry != nil:
			req, carry = *carry, nil
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
				continue
			}
			req.deliver(w.handleLocked(req))
			continue
		}
		// Opportunistic group: drain whatever is already queued, up to
		// maxBatch ops, stopping at a barrier op. A request that would
		// push the group past the window is carried into the next round
		// instead, so no transaction ever exceeds maxBatch operations.
		group := append(w.scratch[:0], req)
		var barrier request
		hasBarrier := false
		n := opCount(req)
	drain:
		for n < w.maxBatch {
			select {
			case r2, ok := <-w.reqs:
				if !ok {
					break drain
				}
				if !groupable(r2.op) {
					barrier, hasBarrier = r2, true
					break drain
				}
				if n+opCount(r2) > w.maxBatch {
					r2 := r2
					carry = &r2
					break drain
				}
				group = append(group, r2)
				n += opCount(r2)
			default:
				break drain
			}
		}
		// Adaptive group commit: when recent groups have been running
		// deep (the queue is hot), the instantaneous drain above often
		// catches requests mid-flight between the submitter and the
		// queue. Waiting a bounded micro-window — scaled by the depth
		// EWMA, capped by commitWait — lets those land and deepens the
		// batch exactly when it pays: the per-commit transaction cost
		// amortizes over more ops. Lockstep load keeps the EWMA near 1,
		// so an idle connection's op commits with zero added latency.
		if carry == nil && !hasBarrier && n < w.maxBatch && w.fullScrub == nil {
			if win := w.commitWindow(); win > 0 {
				w.commitWaits++
				if w.waitTimer == nil {
					w.waitTimer = time.NewTimer(win)
				} else {
					w.waitTimer.Reset(win)
				}
				fired := false
			await:
				for n < w.maxBatch {
					select {
					case r2, ok := <-w.reqs:
						if !ok {
							break await
						}
						if !groupable(r2.op) {
							barrier, hasBarrier = r2, true
							break await
						}
						if n+opCount(r2) > w.maxBatch {
							r2 := r2
							carry = &r2
							break await
						}
						group = append(group, r2)
						n += opCount(r2)
					case <-w.waitTimer.C:
						fired = true
						break await
					}
				}
				if !fired && !w.waitTimer.Stop() {
					<-w.waitTimer.C
				}
			}
		}
		w.gate.Lock()
		w.runGroup(group)
		w.gate.Unlock()
		w.ewma = 0.75*w.ewma + 0.25*float64(n)
		w.scratch = group[:0]
		if hasBarrier {
			if barrier.op == opScrub {
				w.startFullScrub(barrier.reply)
			} else {
				barrier.deliver(w.handleLocked(barrier))
			}
		}
	}
}

// startFullScrub begins (or joins) a full scrub pass for the waiter. The
// loop steps the pass whenever the queue is idle; every waiter gets the
// completed pass's merged report. A backend without the ScrubRunner
// capability answers immediately with an empty report whose
// ChecksumsVerified is false — "nothing was verified", not an error.
func (w *worker) startFullScrub(reply chan response) {
	if w.scrubber == nil {
		reply <- response{scrub: pangolin.ScrubReport{}}
		return
	}
	if w.fullScrub == nil {
		w.fullScrub = &fullScrubJob{
			sc:    w.scrubber.NewScrubPass(),
			total: pangolin.ScrubReport{ChecksumsVerified: w.scrubber.ChecksumsVerified()},
		}
	}
	w.fullScrub.waiters = append(w.fullScrub.waiters, reply)
}

// stepFullScrub advances the in-progress pass one bounded step under the
// reader gate's write side, answering the waiters when the pass
// completes (or fails).
func (w *worker) stepFullScrub() {
	job := w.fullScrub
	w.gate.Lock()
	rep, done, err := job.sc.Step()
	w.gate.Unlock()
	job.total.Add(rep)
	if err == nil {
		w.scrubSteps++
		if !done {
			return
		}
		w.lastFullPassUnix = time.Now().Unix()
	} else {
		w.scrubErrs++
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
		reply <- response{err: fmt.Errorf("shard %d: %w", w.idx, ErrShuttingDown)}
	}
	w.fullScrub = nil
}

// handleLocked runs one request with the reader gate's write side held,
// excluding fast-path readers for the duration of the store access. The
// gate is taken here — around execution only, never around the queue
// receive — so readers get the gate back between every request.
func (w *worker) handleLocked(req request) response {
	w.gate.Lock()
	defer w.gate.Unlock()
	return w.handle(req)
}

// storeKind maps a BatchOp kind to its store.Op kind.
func storeKind(kind uint8) (uint8, error) {
	switch kind {
	case BatchGet:
		return store.OpGet, nil
	case BatchPut:
		return store.OpPut, nil
	case BatchDel:
		return store.OpDel, nil
	default:
		return 0, fmt.Errorf("unknown batch kind %d", kind)
	}
}

// commitWindow sizes the adaptive wait for the current group, from the
// recent-depth EWMA: zero (no wait) until batches have actually been
// forming (EWMA ≥ 2), then a window that grows with the typical depth,
// capped at commitWait.
func (w *worker) commitWindow() time.Duration {
	if w.commitWait <= 0 || w.ewma < 2 {
		return 0
	}
	win := time.Duration(float64(w.commitWait) * w.ewma / float64(w.maxBatch))
	if win > w.commitWait {
		win = w.commitWait
	}
	return win
}

// flattenGroup lowers a group of requests into one store.Apply batch,
// appending to ops (the worker's reusable scratch).
func flattenGroup(ops []store.Op, group []request) ([]store.Op, error) {
	for _, r := range group {
		switch r.op {
		case opPut:
			ops = append(ops, store.Op{Kind: store.OpPut, K: r.k, V: r.v})
		case opGet:
			ops = append(ops, store.Op{Kind: store.OpGet, K: r.k})
		case opDel:
			ops = append(ops, store.Op{Kind: store.OpDel, K: r.k})
		case opBatch:
			for _, op := range r.ops {
				kind, err := storeKind(op.Kind)
				if err != nil {
					return nil, err
				}
				ops = append(ops, store.Op{Kind: kind, K: op.K, V: op.V})
			}
		default:
			return nil, fmt.Errorf("op %d inside a group", r.op)
		}
	}
	return ops, nil
}

// runGroup executes a group of data requests. Groups with at least one
// mutation and more than one op run as a single atomic store.Apply
// batch; read-only or single-op groups take the plain per-op path (GETs
// need no transaction at all).
func (w *worker) runGroup(group []request) {
	// A batch request larger than the group window arrives alone in its
	// group (opCount(req) ≥ maxBatch keeps the drain from adding to it):
	// execute it in window-sized batch chunks and merge the per-op
	// results, so the documented MaxBatch bound holds for client batches
	// too. Atomicity is then per chunk, which is what doc.go promises
	// for batches beyond the window.
	if len(group) == 1 && group[0].op == opBatch && len(group[0].ops) > w.maxBatch {
		req := group[0]
		out := make([]BatchResult, 0, len(req.ops))
		for start := 0; start < len(req.ops); start += w.maxBatch {
			end := min(start+w.maxBatch, len(req.ops))
			br := w.execBatchChunk(req.ops[start:end])
			out = append(out, br...)
			putBatchResults(br) // copied above; the chunk slice is free
		}
		req.deliver(response{batch: out})
		return
	}
	muts, total := 0, 0
	for _, r := range group {
		total += opCount(r)
		switch r.op {
		case opPut, opDel:
			muts++
		case opBatch:
			for _, op := range r.ops {
				if op.Kind != BatchGet {
					muts++
				}
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
	if err == nil {
		w.batches++
		w.batchedOps += uint64(total)
		ri := 0
		for _, r := range group {
			var resp response
			switch r.op {
			case opPut:
				ri++
			case opGet:
				resp = response{v: results[ri].V, ok: results[ri].OK}
				ri++
			case opDel:
				resp = response{ok: results[ri].OK}
				ri++
			case opBatch:
				br := getBatchResults(len(r.ops))
				for j := range r.ops {
					br[j] = BatchResult{V: results[ri].V, OK: results[ri].OK}
					ri++
				}
				resp = response{batch: br}
			}
			w.countGroup(r, resp)
			r.deliver(resp)
		}
		return
	}
	// The group's batch aborted (nothing was applied). Retry each
	// request on its own so one bad op can't poison its batchmates; each
	// waiter gets its op's own verdict.
	w.groupFallbacks++
	for _, r := range group {
		r.deliver(w.handle(r))
	}
}

// execBatchChunk runs one window-sized slice of an oversized batch as a
// single atomic store batch, with the same per-op fallback as a group.
func (w *worker) execBatchChunk(ops []BatchOp) []BatchResult {
	sub := request{op: opBatch, ops: ops}
	muts := 0
	for _, op := range ops {
		if op.Kind != BatchGet {
			muts++
		}
	}
	if muts == 0 || len(ops) == 1 {
		return w.handle(sub).batch
	}
	w.oneReq[0] = sub
	sops, err := flattenGroup(w.opsBuf[:0], w.oneReq[:])
	var results []store.Result
	if err == nil {
		results, err = w.st.Apply(sops)
	}
	w.opsBuf = sops[:0]
	if err == nil {
		w.batches++
		w.batchedOps += uint64(len(ops))
		br := getBatchResults(len(ops))
		for i := range ops {
			br[i] = BatchResult{V: results[i].V, OK: results[i].OK}
		}
		resp := response{batch: br}
		w.countGroup(sub, resp)
		return br
	}
	w.groupFallbacks++
	return w.handle(sub).batch
}

// countGroup applies the op counters for one group-committed request.
func (w *worker) countGroup(req request, resp response) {
	switch req.op {
	case opPut:
		w.puts++
	case opGet:
		w.gets++
		if resp.ok {
			w.hits++
		}
	case opDel:
		w.dels++
	case opBatch:
		for i, op := range req.ops {
			switch op.Kind {
			case BatchPut:
				w.puts++
			case BatchGet:
				w.gets++
				if resp.batch[i].OK {
					w.hits++
				}
			case BatchDel:
				w.dels++
			}
		}
	}
}

// healCooldown suppresses repeat heal passes after a futile one: truly
// unrecoverable corruption on a hot key must not turn every op into a
// full-pool pass.
const healCooldown = time.Second

// maxFutileLoci bounds the futility map; past it the throttle turns
// shard-global for a cooldown.
const maxFutileLoci = 64

// withHeal runs one data operation with a single repair-retry: if the
// op fails on CORRUPTION — a checksum mismatch, a poison hit, or the
// typed invalid-OID failure a scribbled pointer produces when a
// traversal follows it before any verification could flag its object
// (the Table 4 vulnerability window) — one full scrub pass runs and the
// op retries. On a backend with redundancy (pangolin) the pass restores
// the scribbled object from parity, so the retry serves repaired data
// and the client never sees the corruption; on a detect-only backend
// the pass fixes nothing and the futility cooldown turns the damage
// into a cheap typed error instead of a per-op full pass.
// Non-corruption failures (out of space, shutdown) return as-is: a pass
// can't help them and must not become their per-op tax.
//
// The caller holds the reader gate's write side (every handle() path
// does); the heal releases it between steps so fast-path readers keep
// their bounded gate windows even while a pass runs.
func (w *worker) withHeal(fn func() error) error {
	err := fn()
	if err == nil || (!pangolin.IsCorruption(err) && !pangolin.IsPoison(err)) {
		return err
	}
	if w.scrubber == nil {
		return err // no pass to heal with
	}
	key := faultKey(err)
	if time.Since(w.healsThrottle) < healCooldown {
		return err
	}
	if t, ok := w.futileHeals[key]; ok && time.Since(t) < healCooldown {
		return err
	}
	rep, herr := w.healPass()
	w.bgRepairs += uint64(rep.Fixed())
	if herr != nil || rep.Fixed() == 0 {
		w.noteFutileHeal(key)
	} else {
		delete(w.futileHeals, key)
	}
	if herr != nil {
		w.scrubErrs++
		return err
	}
	return fn()
}

// noteFutileHeal records a heal pass that fixed nothing for this locus,
// pruning expired entries and degrading to a shard-global throttle when
// too many distinct loci are futile at once.
func (w *worker) noteFutileHeal(key uint64) {
	if w.futileHeals == nil {
		w.futileHeals = make(map[uint64]time.Time)
	}
	if len(w.futileHeals) >= maxFutileLoci {
		for k, t := range w.futileHeals {
			if time.Since(t) >= healCooldown {
				delete(w.futileHeals, k)
			}
		}
		if len(w.futileHeals) >= maxFutileLoci {
			w.healsThrottle = time.Now()
			return
		}
	}
	w.futileHeals[key] = time.Now()
}

// faultKey extracts the failing locus from a corruption/poison error:
// the corrupt object's offset or the poisoned page. It keys the
// futility cooldown so one unhealable locus doesn't suppress heals for
// the rest of the shard.
func faultKey(err error) uint64 {
	var ce *pangolin.CorruptionError
	if errors.As(err, &ce) {
		return ce.OID.Off
	}
	var pe *pangolin.PoisonError
	if errors.As(err, &pe) {
		return pe.Off
	}
	return 0
}

// healPass steps one full scrub pass with the reader gate's write side
// released between steps (the caller holds it on entry; it is held
// again on return) — the shard never reverts to a stop-the-world pass,
// even on the repair path.
func (w *worker) healPass() (pangolin.ScrubReport, error) {
	sc := w.scrubber.NewScrubPass()
	total := pangolin.ScrubReport{ChecksumsVerified: w.scrubber.ChecksumsVerified()}
	for {
		rep, done, err := sc.Step()
		total.Add(rep)
		w.scrubSteps++
		if err != nil || done {
			return total, err
		}
		w.gate.Unlock()
		//pgllint:ignore gatepair caller holds the gate on entry and return; the loop cycles it between scrub steps
		w.gate.Lock()
	}
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
	case opPut:
		w.puts++
		err := w.withHeal(func() error {
			_, e := w.applyOne(store.Op{Kind: store.OpPut, K: req.k, V: req.v})
			return e
		})
		if err != nil {
			w.errs++
		}
		return response{err: err}
	case opGet:
		w.gets++
		var v uint64
		var ok bool
		err := w.withHeal(func() (e error) {
			v, ok, e = w.st.Get(req.k)
			return e
		})
		if err != nil {
			w.errs++
		}
		if ok {
			w.hits++
		}
		return response{v: v, ok: ok, err: err}
	case opDel:
		w.dels++
		var ok bool
		err := w.withHeal(func() (e error) {
			res, e := w.applyOne(store.Op{Kind: store.OpDel, K: req.k})
			ok = res.OK
			return e
		})
		if err != nil {
			w.errs++
		}
		return response{ok: ok, err: err}
	case opBatch:
		// Per-op execution of a batch request: each op on its own with
		// its own verdict.
		res := getBatchResults(len(req.ops))
		for i, op := range req.ops {
			switch op.Kind {
			case BatchPut:
				w.puts++
				err := w.withHeal(func() error {
					_, e := w.applyOne(store.Op{Kind: store.OpPut, K: op.K, V: op.V})
					return e
				})
				if err != nil {
					w.errs++
				}
				res[i] = BatchResult{OK: err == nil, Err: err}
			case BatchGet:
				w.gets++
				var v uint64
				var ok bool
				err := w.withHeal(func() (e error) {
					v, ok, e = w.st.Get(op.K)
					return e
				})
				if err != nil {
					w.errs++
				}
				if ok {
					w.hits++
				}
				res[i] = BatchResult{V: v, OK: ok, Err: err}
			case BatchDel:
				w.dels++
				var ok bool
				err := w.withHeal(func() (e error) {
					r, e := w.applyOne(store.Op{Kind: store.OpDel, K: op.K})
					ok = r.OK
					return e
				})
				if err != nil {
					w.errs++
				}
				res[i] = BatchResult{OK: ok, Err: err}
			default:
				w.errs++
				res[i] = BatchResult{Err: fmt.Errorf("shard %d: unknown batch kind %d", w.idx, op.Kind)}
			}
		}
		return response{batch: res}
	case opScan:
		// The worker-path scan chunk: the owner store's repairing reads,
		// serialized with batches like every worker op.
		w.scans++
		var pairs []Pair
		err := w.withHeal(func() (e error) {
			pairs, e = scanCollect(w.st, w.ordered, req.k, req.v, req.max)
			return e
		})
		if err != nil {
			w.errs++
		}
		w.scanPairs += uint64(len(pairs))
		return response{pairs: pairs, err: err}
	case opSnapOpen:
		// Pin the shard's current committed generation. Routed through the
		// worker so the pin lands between group commits, never mid-batch —
		// the version buffer's staging decision is then stable for every
		// whole batch after the pin.
		if w.snapper == nil {
			return response{err: fmt.Errorf("shard %d (%s): %w", w.idx, w.st.Backend(), store.ErrSnapshotUnsupported)}
		}
		sn, err := w.snapper.OpenSnapshot()
		if err != nil {
			w.errs++
			return response{err: fmt.Errorf("shard %d: %w", w.idx, err)}
		}
		return response{snap: sn}
	case opSnapScan:
		// The worker-path snapshot chunk: pinned-generation resolution over
		// the owner store's repairing reads. A typed snapshot verdict is
		// final; read faults get the usual one-heal retry.
		var pairs []Pair
		err := w.withHeal(func() (e error) {
			pairs, e = scanCollect(snapScanner{sn: req.snap, live: w.st}, req.snap.Ordered(), req.k, req.v, req.max)
			return e
		})
		if err != nil {
			if !errors.Is(err, store.ErrSnapshotTooOld) {
				w.errs++
			}
			return response{err: err}
		}
		w.snapScans.Add(1)
		w.snapScanPairs.Add(uint64(len(pairs)))
		return response{pairs: pairs}
	case opStats:
		sst := w.st.Stats()
		return response{stats: ShardStats{
			Index:          w.idx,
			Backend:        sst.Backend,
			Gets:           w.gets,
			Puts:           w.puts,
			Dels:           w.dels,
			Hits:           w.hits,
			FastGets:       w.fastGets.Load(),
			FastHits:       w.fastHits.Load(),
			FastFallbacks:  w.fastFallbacks.Load(),
			FastFaults:     w.fastFaults.Load(),
			Errors:         w.errs,
			Batches:        w.batches,
			BatchedOps:     w.batchedOps,
			GroupFallbacks: w.groupFallbacks,
			CommitWaits:    w.commitWaits,
			Scans:          w.scans,
			ScanPairs:      w.scanPairs,
			FastScans:      w.fastScans.Load(),
			FastScanPairs:  w.fastScanPairs.Load(),
			ScanFallbacks:  w.scanFallbacks.Load(),
			ScanFaults:     w.scanFaults.Load(),
			ScrubSteps:     w.scrubSteps,
			BgRepairs:      w.bgRepairs,
			ScrubBackoffs:  w.scrubBackoffs.Load(),
			ScrubErrors:    w.scrubErrs,
			LastFullPass:   w.lastFullPassUnix,
			SnapScans:      w.snapScans.Load(),
			SnapScanPairs:  w.snapScanPairs.Load(),
			Objects:        sst.Objects,
			Bytes:          sst.Bytes,
			Segments:       sst.Segments,
			Compactions:    sst.Compactions,
			MergedRecords:  sst.MergedRecords,
			DeadRecords:    sst.DeadRecords,
			Quarantined:    sst.QuarantinedSegments,
			SnapshotPins:   sst.SnapshotPins,
			VersionsHeld:   sst.VersionsRetained,
		}}
	case opSync:
		return response{err: w.st.Save()}
	case opCrash:
		return response{err: w.st.CrashSave(req.seed)}
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
			w.scrubErrs++
			return response{scrub: rep, err: err}
		}
		w.scrubSteps++
		w.bgRepairs += uint64(rep.Fixed())
		if done {
			w.lastFullPassUnix = time.Now().Unix()
		}
		return response{scrub: rep, ok: done}
	case opInject:
		// Fault-injection hook (§4.6): corrupt one random live object so
		// tests and the loadtest corruption phase can prove the
		// maintenance subsystem heals a live shard. Backends without the
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
