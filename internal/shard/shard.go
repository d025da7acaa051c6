// Package shard hash-partitions a uint64 key space across N independent
// per-shard stores so that mutations on different shards commit in
// parallel. Every store backend (internal/store) shares the paper's
// ownership discipline — pangolin transactions are per-goroutine and two
// concurrent transactions must not modify the same object (§3.4) — so
// the package gives each shard exactly one owner goroutine (a worker)
// that performs every mutating store access — batches, snapshot saves,
// scrubs — and routes requests to workers over channels. Write
// concurrency scales with the shard count while each store keeps the
// single-writer discipline.
//
// Reads do not funnel through the workers: every backend offers a read
// view (store.ReadViewer), and Pangolin's design point is that readers
// verify per-object checksums straight from NVMM and run concurrently
// with each other (§3.3), so Get executes a verified read on the
// caller's goroutine against the store's view, gated by a per-shard
// reader/writer gate. Readers share the gate; the worker takes its
// write side around every store access, so a group commit (the
// linearization point for the shard) excludes readers only for the
// commit itself. Readers never block on the gate: if it is unavailable
// — commit, save, crash-image, scrub, or recovery in progress — or a
// read hits a fault that needs online repair, the read falls back to
// the worker queue, whose repairing path serializes with everything
// else.
//
// A set runs one backend on every shard (Options.Backend): the pangolin
// backend persists as one snapshot file per shard (shard-%04d.pgl, via
// pangolin.PoolSet) and the log backend as one segment directory per
// shard (shard-%04d.log) — Open rediscovers the backend from which form
// is present. Each shard records its structure, index, and set size
// (the pangolin root / the log manifest) so Open can reattach and can
// reject a directory whose shards disagree (e.g. a file restored from
// the wrong set).
package shard

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/internal/store/logstore"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

// ErrShuttingDown reports an operation rejected because the set (or its
// shard) is shutting down. It is distinguishable with errors.Is from a
// real lookup or transaction error, so callers can treat it as a
// lifecycle event rather than data-path corruption.
var ErrShuttingDown = errors.New("shard set shutting down")

// ErrUnprotectedMode reports a request for one of the pmemobj baselines
// through a service set: ModePmemobjR in Options.Pangolin.Mode, or the
// name "pmemobj" or "pmemobj-r" given to ParseMode. The plain baseline
// is numerically the zero Mode, which Options reads as the default, so
// only the name can ask for it.
var ErrUnprotectedMode = errors.New("shard: the pmemobj baselines (pmemobj, pmemobj-r) are not servable: a set runs one of the micro-buffered Pangolin modes")

// Options configures a shard set.
type Options struct {
	// Structure selects the kv structure by registry name; default
	// "hashmap".
	Structure string
	// Backend selects the storage engine every shard runs: "pangolin"
	// (the paper's engine; default) or "logstore" (the append-only log
	// baseline). Open ignores it: the backend is rediscovered from the
	// shards' on-disk form.
	Backend string
	// Pangolin configures each pangolin shard pool. A zero Mode selects
	// ModePangolinMLPC, the fully protected system; the four Pangolin
	// modes select themselves; ModePmemobjR fails with
	// ErrUnprotectedMode. Pangolin.Scrub also bounds every backend's
	// maintenance steps.
	Pangolin pangolin.Config
	// LogSegmentBytes is the log backend's segment rotation threshold;
	// 0 selects the logstore default. Small values force rotation and
	// compaction traffic (tests, the ledger's log_batch workload).
	LogSegmentBytes int64
	// ScrubInterval enables the background maintenance scheduler: every
	// interval one shard (round-robin) is offered one bounded scrub
	// step, skipped with a backoff whenever that shard's worker is busy.
	// 0 disables the scheduler; scrubbing then happens only on demand
	// (Scrub / the server's SCRUB op). Step bounds come from
	// Pangolin.Scrub. On log shards the step doubles as the compaction
	// driver: merges run through the same tick.
	ScrubInterval time.Duration

	// queueLen is the per-shard request queue depth; 0 selects 128.
	queueLen int
	// maxBatch caps how many operations a shard worker folds into one
	// group-committed store batch; 0 selects 64. A worker never waits to
	// fill a group (it yields at most once, see Settled), so this bounds
	// batch size, not latency. Both are set only by this package's tests.
	maxBatch int
}

func (o *Options) structure() string {
	if o.Structure == "" {
		return "hashmap"
	}
	return o.Structure
}

// ModeNames returns the servable mode names (the micro-buffered
// Pangolin modes) in protection order.
func ModeNames() []string {
	var names []string
	for _, m := range pangolin.Modes() {
		if m.MicroBuffered() {
			names = append(names, strings.ToLower(m.String()))
		}
	}
	return names
}

// ParseMode resolves a servable mode name (ModeNames) for
// Options.Pangolin.Mode. A pmemobj baseline's name fails with
// ErrUnprotectedMode, and an unknown name with an error naming the
// choices: an explicit request for a baseline is rejected, not coerced.
func ParseMode(name string) (pangolin.Mode, error) {
	m, err := pangolin.ParseMode(name)
	if err != nil {
		return 0, fmt.Errorf("shard: unknown mode %q (have %v)", name, ModeNames())
	}
	if !m.MicroBuffered() {
		return 0, ErrUnprotectedMode
	}
	return m, nil
}

func (o *Options) config() (pangolin.Config, error) {
	cfg := o.Pangolin
	switch cfg.Mode {
	case pangolin.ModePmemobj:
		// Zero is indistinguishable from unset: the protected default.
		cfg.Mode = pangolin.ModePangolinMLPC
	case pangolin.ModePangolin, pangolin.ModePangolinML, pangolin.ModePangolinMLP, pangolin.ModePangolinMLPC:
	case pangolin.ModePmemobjR:
		return cfg, fmt.Errorf("%w: got %v", ErrUnprotectedMode, cfg.Mode)
	default:
		return cfg, fmt.Errorf("shard: unknown mode %v", cfg.Mode)
	}
	return cfg, nil
}

// logOptions builds the log backend's per-shard options.
func (o *Options) logOptions(structure string, i, n int) logstore.Options {
	return logstore.Options{
		Structure:    structure,
		Index:        i,
		Count:        n,
		SegmentBytes: o.LogSegmentBytes,
		Scrub:        o.Pangolin.Scrub,
	}
}

// Set is a sharded, concurrently usable key-value store over per-shard
// store.Store backends. All methods are safe for concurrent use; each
// operation is serialized onto its shard's worker goroutine.
type Set struct {
	dir       string
	workers   []*worker
	stores    []store.Store
	structure registry.Structure
	maint     *maintenance // background scrub scheduler; nil when disabled
}

// makeStore makes shard i's store and reports the structure it holds.
type makeStore func(i int) (store.Store, string, error)

// Create builds a new n-shard set in dir on opts.Backend and starts its
// workers. Create refuses a directory that already holds any shard
// file, whole set or damaged: a new set written beside a surviving
// shard would never reopen.
func Create(dir string, n int, opts Options) (*Set, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: a set needs at least 1 shard, got %d", n)
	}
	switch _, _, err := discover(dir); {
	case err == nil:
		return nil, fmt.Errorf("shard: %s already holds a shard set", dir)
	case !errors.Is(err, ErrNoShards):
		return nil, fmt.Errorf("shard: refusing to create over %s: %w", dir, err)
	}
	structure, err := registry.ByName(opts.structure())
	if err != nil {
		return nil, err
	}
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	var mk makeStore
	release := func() {}
	switch opts.Backend {
	case "", store.BackendPangolin:
		// NewPoolSetShards defers the snapshot writes: the Sync below
		// persists the pools once, with their roots already initialized.
		pools, err := pangolin.NewPoolSetShards(dir, n, shardIndexes(n), cfg)
		if err != nil {
			return nil, err
		}
		release = pools.Close
		mk = func(i int) (store.Store, string, error) {
			st, err := pangolinstore.Create(pools, i, structure, cfg.Scrub)
			return st, structure.Name, err
		}
	case store.BackendLog:
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, err
		}
		mk = func(i int) (store.Store, string, error) {
			st, err := logstore.Create(logstore.ShardDir(dir, i), opts.logOptions(structure.Name, i, n))
			return st, structure.Name, err
		}
	default:
		return nil, fmt.Errorf("shard: unknown backend %q (have %v)", opts.Backend, store.Backends())
	}
	s, err := build(dir, n, opts, mk, release)
	if err != nil {
		return nil, err
	}
	// Persist the freshly initialized shards (pangolin roots and
	// anchors; log manifests and empty tails).
	if err := s.Sync(); err != nil {
		s.Abandon()
		return nil, err
	}
	s.startMaint(opts.ScrubInterval)
	return s, nil
}

// Open reopens the set in dir — rediscovering its backend from the
// shards' on-disk form, running crash recovery on every shard —
// reattaches each shard's structure, and starts the workers.
// opts.Structure and opts.Backend are ignored; both are read from the
// shards themselves. A directory without shard files fails with
// ErrNoShards.
func Open(dir string, opts Options) (*Set, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	backend, n, err := discover(dir)
	if err != nil {
		return nil, err
	}
	var mk makeStore
	release := func() {}
	switch backend {
	case store.BackendPangolin:
		pools, err := pangolin.OpenPoolSetShards(dir, n, shardIndexes(n), cfg)
		if err != nil {
			return nil, err
		}
		release = pools.Close
		mk = func(i int) (store.Store, string, error) {
			st, err := pangolinstore.Open(pools, i, cfg.Scrub)
			if err != nil {
				return nil, "", err
			}
			return st, st.Structure().Name, nil
		}
	case store.BackendLog:
		mk = func(i int) (store.Store, string, error) {
			st, err := logstore.Open(logstore.ShardDir(dir, i), opts.logOptions("", i, n))
			if err != nil {
				return nil, "", err
			}
			return st, st.Structure(), nil
		}
	}
	s, err := build(dir, n, opts, mk, release)
	if err != nil {
		return nil, err
	}
	s.startMaint(opts.ScrubInterval)
	return s, nil
}

func shardIndexes(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// build makes the set's n stores with mk, checks that every shard holds
// shard 0's structure, and starts one worker per store. On a failure it
// closes the stores already made and calls release, which frees what mk
// had not yet wrapped in a store (the pangolin pools).
func build(dir string, n int, opts Options, mk makeStore, release func()) (*Set, error) {
	s := &Set{dir: dir}
	fail := func(i int, err error) (*Set, error) {
		s.Abandon()
		release()
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	for i := range n {
		st, name, err := mk(i)
		if err != nil {
			return fail(i, err)
		}
		s.stores = append(s.stores, st)
		if i == 0 {
			s.structure, err = registry.ByName(name)
		} else if name != s.structure.Name {
			err = fmt.Errorf("holds %s but shard 0 holds %s", name, s.structure.Name)
		}
		if err != nil {
			return fail(i, err)
		}
	}
	for i, st := range s.stores {
		view, err := st.ReadView()
		if err != nil {
			return fail(i, fmt.Errorf("attach read view: %w", err))
		}
		s.workers = append(s.workers, newWorker(i, st, view, cmp.Or(opts.queueLen, 128), cmp.Or(opts.maxBatch, 64)))
	}
	return s, nil
}

// ErrNoShards reports a set directory that is missing or holds no shard
// files: the one state in which Create may build a set there.
var ErrNoShards = errors.New("no shard files")

// discover reads a set directory's layout: its backend — pangolin when
// the shards are shard-%04d.pgl files, logstore when they are
// shard-%04d.log directories — and its shard count. Every index in
// [0, n) must be present, all in one form. A missing directory, or one
// without shard files, fails with ErrNoShards.
func discover(dir string) (backend string, n int, err error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return "", 0, fmt.Errorf("shard: %w: %w", ErrNoShards, err)
	}
	if err != nil {
		return "", 0, err
	}
	present := make(map[int]bool)
	var first string // the first shard file, in backend's form
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "shard-") || len(name) < len("shard-")+4 {
			continue
		}
		var b string
		switch {
		case strings.HasSuffix(name, ".pgl") && !e.IsDir():
			b = store.BackendPangolin
		case strings.HasSuffix(name, ".log") && e.IsDir():
			b = store.BackendLog
		default:
			continue
		}
		i, err := strconv.Atoi(name[len("shard-") : len(name)-len(".pgl")])
		if err != nil {
			continue
		}
		if backend == "" {
			backend, first = b, name
		} else if b != backend {
			return "", 0, fmt.Errorf("shard: %s holds both %s (%s) and %s (%s) shards; a set runs one backend",
				dir, backend, first, b, name)
		}
		present[i] = true
		n = max(n, i+1)
	}
	if n == 0 {
		return "", 0, fmt.Errorf("shard: %s: %w", dir, ErrNoShards)
	}
	for i := range n {
		if !present[i] {
			return "", 0, fmt.Errorf("shard: shard files not contiguous: %s has no shard %d", dir, i)
		}
	}
	return backend, n, nil
}

// mix is the splitmix64 finalizer: it decorrelates shard choice from key
// patterns, so sequential keys still spread uniformly.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// ShardOf returns the shard index owning key k.
func (s *Set) ShardOf(k uint64) int { return int(mix(k) % uint64(len(s.workers))) }

// Len returns the shard count.
func (s *Set) Len() int { return len(s.workers) }

// Structure returns the name of the kv structure the shards hold.
func (s *Set) Structure() string { return s.structure.Name }

// Dir returns the set's storage directory.
func (s *Set) Dir() string { return s.dir }

// Put inserts or updates k on its shard.
func (s *Set) Put(k, v uint64) error {
	r := s.workers[s.ShardOf(k)].do(request{op: opPut, k: k, v: v})
	return r.err
}

// Get returns the value for k. Reads are served on the concurrent fast
// path when possible: a checksum-verified read runs directly against
// the shard store from the caller's goroutine, in parallel with other
// readers, gated by the shard's reader/writer gate. When the worker owns
// the gate (a group commit, save, crash image, scrub, or recovery window
// is in progress) or the read hits a fault that needs repair, the read
// falls back to the worker queue; Stats reports both populations
// (fast_gets vs gets, plus fast_fallbacks/fast_faults).
func (s *Set) Get(k uint64) (uint64, bool, error) {
	w := s.workers[s.ShardOf(k)]
	var res [1]BatchResult
	if served, err := w.readGets([]BatchOp{{Kind: BatchGet, K: k}}, res[:]); served {
		return res[0].V, res[0].OK, err
	}
	r := w.do(request{op: opGet, k: k})
	return r.v, r.ok, r.err
}

// Del removes k, reporting whether it was present.
func (s *Set) Del(k uint64) (bool, error) {
	r := s.workers[s.ShardOf(k)].do(request{op: opDel, k: k})
	return r.ok, r.err
}

// SubmitGet queues one read for asynchronous completion: done is invoked
// exactly once with the result, from the shard worker goroutine when the
// op executes (or synchronously, when it can be served or rejected
// without the worker). done must not block: it runs inside the shard's
// commit loop, so a blocking callback would stall every other op on the
// shard. If the shard is shutting down, done receives a typed
// ErrShuttingDown result — an in-flight op never disappears silently.
//
// The verified-read fast path runs inline on the caller's goroutine when
// it can (same rules as Get, completing done before SubmitGet returns),
// and gate-busy or faulting reads fall back to the worker queue's
// repairing path.
func (s *Set) SubmitGet(k uint64, done func(BatchResult)) {
	w := s.workers[s.ShardOf(k)]
	var res [1]BatchResult
	if served, err := w.readGets([]BatchOp{{Kind: BatchGet, K: k}}, res[:]); served {
		res[0].Err = err
		done(res[0])
		return
	}
	w.submit(request{op: opGet, k: k, done: func(r response) {
		done(BatchResult{V: r.v, OK: r.ok, Err: r.err})
	}})
}

// SubmitPut is SubmitGet for an insert/update. This is the path the
// server's pipelined connections feed: submitted writes flow straight
// into the shard worker queue, where the group-commit drain folds every
// queued op into one store batch, so deeper pipelines directly produce
// bigger groups.
func (s *Set) SubmitPut(k, v uint64, done func(BatchResult)) {
	s.workers[s.ShardOf(k)].submit(request{op: opPut, k: k, v: v, done: func(r response) {
		done(BatchResult{OK: r.err == nil, Err: r.err})
	}})
}

// SubmitDel is SubmitPut for a delete; the result's OK reports presence.
func (s *Set) SubmitDel(k uint64, done func(BatchResult)) {
	s.workers[s.ShardOf(k)].submit(request{op: opDel, k: k, done: func(r response) {
		done(BatchResult{OK: r.ok, Err: r.err})
	}})
}

// Batch executes ops and returns their results in matching order. The
// ops are partitioned by shard; each shard executes its slice inside one
// group-committed store batch (its commit is the linearization point
// for the slice), and the shards run concurrently. There is no
// cross-shard atomicity. If a shard's batch fails, that shard's ops are
// retried individually, each with its own verdict in BatchResult.Err.
func (s *Set) Batch(ops []BatchOp) []BatchResult {
	out := make([]BatchResult, len(ops))
	if len(ops) == 0 {
		return out
	}
	sc := getBatchScratch(len(ops), len(s.workers))
	// A counting sort by shard: count each shard's ops, turn the counts
	// into start offsets, then place every op at its shard's cursor,
	// which leaves end[sh] at the end of shard sh's run.
	for i, op := range ops {
		sh := s.ShardOf(op.K)
		sc.shard[i] = sh
		sc.end[sh]++
	}
	next := 0
	for sh, n := range sc.end {
		sc.end[sh] = next
		next += n
	}
	for i, op := range ops {
		j := sc.end[sc.shard[i]]
		sc.end[sc.shard[i]]++
		sc.ops[j], sc.idx[j] = op, i
	}
	lo := 0
	for sh, hi := range sc.end {
		sub := sc.ops[lo:hi]
		sc.replies[sh] = nil
		switch {
		case len(sub) == 0:
		case allGets(sub):
			// All-GET slices take the read fast path: one reader-gate
			// hold per shard slice, no worker hop. Read-only batches
			// have no transaction even on the worker path (runGroup
			// executes them per-op), so the semantics are identical;
			// mixed or mutating slices go to the worker.
			res := getBatchResults(len(sub))
			if served, err := s.workers[sh].readGets(sub, res); served {
				sc.settle(out, lo, hi, res, err)
				break
			}
			putBatchResults(res)
			fallthrough
		default:
			sc.replies[sh] = s.workers[sh].send(request{op: opBatch, ops: sub})
		}
		lo = hi
	}
	lo = 0
	for sh, hi := range sc.end {
		if ch := sc.replies[sh]; ch != nil {
			r := <-ch
			putReply(ch)
			sc.settle(out, lo, hi, r.batch, r.err)
		}
		lo = hi
	}
	putBatchScratch(sc)
	return out
}

// batchScratch is one Batch call's partition of its ops by shard. Shard
// sh's ops are ops[end[sh-1]:end[sh]] (from 0 for shard 0), and idx
// maps each back to its request position. The workers read their
// slices of ops until they reply, so a scratch returns to the pool only
// after every reply is in.
type batchScratch struct {
	shard   []int           // per request op: its shard
	ops     []BatchOp       // the ops grouped by shard
	idx     []int           // per grouped op: its request position
	end     []int           // per shard: the end of its run in ops
	replies []chan response // per shard: the worker's reply, nil if none
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// getBatchScratch returns a scratch sized for n ops over shards
// shards, with end zeroed for the counting pass.
func getBatchScratch(n, shards int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.ops) < n {
		sc.shard, sc.ops, sc.idx = make([]int, n), make([]BatchOp, n), make([]int, n)
	}
	if cap(sc.end) < shards {
		sc.end, sc.replies = make([]int, shards), make([]chan response, shards)
	}
	sc.shard, sc.ops, sc.idx = sc.shard[:n], sc.ops[:n], sc.idx[:n]
	sc.end, sc.replies = sc.end[:shards], sc.replies[:shards]
	clear(sc.end)
	return sc
}

// putBatchScratch recycles sc unless an oversized batch grew it past
// what the pool keeps.
func putBatchScratch(sc *batchScratch) {
	if cap(sc.ops) <= maxPooledBatchResults {
		batchScratchPool.Put(sc)
	}
}

// settle copies the results of the grouped ops lo..hi into their
// request positions in out; a shard that rejected its slice outright
// (closed) gives every op err.
func (sc *batchScratch) settle(out []BatchResult, lo, hi int, res []BatchResult, err error) {
	for j := lo; j < hi; j++ {
		if err != nil {
			out[sc.idx[j]] = BatchResult{Err: err}
		} else {
			out[sc.idx[j]] = res[j-lo]
		}
	}
	putBatchResults(res)
}

// allGets reports whether every op in the slice is a read.
func allGets(ops []BatchOp) bool {
	for _, op := range ops {
		if op.Kind != BatchGet {
			return false
		}
	}
	return true
}

// broadcast sends req to every shard at once, so the shards run it in
// parallel, and returns their responses in shard order.
func (s *Set) broadcast(req request) []response {
	chans := make([]chan response, len(s.workers))
	for i, w := range s.workers {
		chans[i] = w.send(req)
	}
	out := make([]response, len(chans))
	for i, ch := range chans {
		out[i] = <-ch
		putReply(ch)
	}
	return out
}

// firstErr returns the first shard's failure among rs, naming the shard.
func firstErr(rs []response) error {
	for i, r := range rs {
		if r.err != nil {
			return fmt.Errorf("shard %d: %w", i, r.err)
		}
	}
	return nil
}

// Sync saves every shard durably. Each save runs on the shard's worker
// goroutine, so it never races a batch; shards save in parallel.
func (s *Set) Sync() error { return firstErr(s.broadcast(request{op: opSync})) }

// CrashSave simulates a whole-machine power failure: each shard's owner
// records a crash image between groups (pangolin: its saved image;
// logstore: a seeded cut of its unsynced tail). The live set keeps
// running; reopening the directory recovers the crash state.
func (s *Set) CrashSave(seed int64) error {
	return firstErr(s.broadcast(request{op: opCrash, seed: seed}))
}

// Scrub runs a full scrubbing pass on every shard and returns the
// merged report. Each shard's pass executes as bounded incremental
// steps interleaved with its queued client requests, never as a
// stop-the-world sweep; concurrent passes on one shard coalesce.
func (s *Set) Scrub() (pangolin.ScrubReport, error) {
	rs := s.broadcast(request{op: opScrub})
	// Merge with ScrubReport.Add — a field-by-field merge here silently
	// dropped new report fields once already.
	total := pangolin.ScrubReport{ChecksumsVerified: true}
	merged := false
	for _, r := range rs {
		if r.err == nil {
			total.Add(r.scrub)
			merged = true
		}
	}
	if !merged {
		total.ChecksumsVerified = false
	}
	return total, firstErr(rs)
}

// InjectFaults corrupts count pseudo-randomly chosen live objects,
// spread round-robin across the shards starting at a seed-chosen shard
// — so repeated count=1 calls with advancing seeds still exercise every
// shard, not just shard 0 (§4.6 fault injection; the server's INJECT
// op). It returns how many objects were
// actually corrupted, plus how many of the set's shards carry the
// injection hook at all (store.FaultInjector) — the capability count
// that lets an operator tell "nothing live to corrupt yet" (capable >
// 0, injected 0: retry) from "these backends cannot inject" (capable
// 0: a retry loop would spin forever). Shards without the hook inject
// nothing, explicitly. Each injection runs on its shard's worker
// goroutine, serialized with batches like every other store access.
func (s *Set) InjectFaults(seed int64, count int) (injected, capable int, err error) {
	for _, w := range s.workers {
		if w.injector != nil {
			capable++
		}
	}
	start := int(mix(uint64(seed)) % uint64(len(s.workers)))
	for i := 0; i < count; i++ {
		w := s.workers[(start+i)%len(s.workers)]
		r := w.do(request{op: opInject, seed: seed + int64(i)})
		if r.err != nil {
			if err == nil {
				err = r.err
			}
			continue
		}
		if r.ok {
			injected++
		}
	}
	return injected, capable, err
}

// ScrubHealth snapshots the set's maintenance counters.
func (s *Set) ScrubHealth() ScrubHealth { return s.Stats().ScrubHealth }

// Stats snapshots per-shard and aggregate counters.
func (s *Set) Stats() Stats {
	st := Stats{
		Structure: s.structure.Name,
		NumShards: len(s.workers),
		Shards:    make([]ShardStats, len(s.workers)),
	}
	var oldest int64
	for i, r := range s.broadcast(request{op: opStats}) {
		sh := r.stats
		st.Shards[i] = sh
		st.add(&sh.Counters)
		if i == 0 || sh.LastFullPass < oldest {
			oldest = sh.LastFullPass
		}
	}
	// The aggregate last-full-pass is the OLDEST shard's, not a sum: the
	// whole set is only as freshly verified as its most stale shard, and
	// 0 (never) while any shard has yet to complete a pass.
	st.LastFullPass = oldest
	st.Backends = st.Shards[0].Backend
	return st
}

// Close saves every shard and shuts the set down.
func (s *Set) Close() error {
	err := s.Sync()
	s.Abandon()
	return err
}

// Abandon shuts the set down without saving, leaving the shard files as
// they are — after CrashSave this completes the simulated machine death.
//
// A store is closed only after its worker has stopped, under the shard's
// reader gate: a pangolin store's Close releases its pool's memory, so a
// fast-path read racing the shutdown either finishes first or finds the
// worker closed, and never reads a released pool.
func (s *Set) Abandon() {
	s.stopMaint()
	for _, w := range s.workers {
		w.stop()
	}
	for i, st := range s.stores {
		switch {
		case st == nil:
		case i < len(s.workers):
			s.workers[i].withGate(func() { st.Close() })
		default: // build failed before this store had a worker
			st.Close()
		}
	}
	s.stores = nil
}

// ScrubHealth is the maintenance subsystem's state: how many bounded
// steps have run, how much corruption they repaired, how often
// backpressure skipped a step, how many steps or passes failed, and when
// the last full pass completed. Set-wide, LastFullPass is the oldest
// shard's (the "verified clean as of" bound — 0 while any shard has yet
// to finish a pass) and every other field sums over the shards.
type ScrubHealth struct {
	// ScrubSteps counts bounded scrub steps executed (scheduler ticks
	// and full passes; an op's repair-retry runs none); BgRepairs counts
	// the objects/pages/parity columns repaired without a client asking
	// for a scrub — by the scheduler's steps, and the pages the
	// re-verified retry of a corrupt read or write repairs; ScrubBackoffs
	// counts steps skipped because the worker was busy (traffic wins);
	// ScrubErrors counts steps and passes that FAILED — a growing value
	// with a stuck LastFullPass is the signal that the cursor cannot
	// advance;
	// LastFullPass is the unix time of the last completed full pass (0 =
	// never).
	ScrubSteps    uint64 `json:"scrub_steps"`
	BgRepairs     uint64 `json:"bg_repairs"`
	ScrubBackoffs uint64 `json:"scrub_backoffs"`
	ScrubErrors   uint64 `json:"scrub_errors"`
	LastFullPass  int64  `json:"last_full_pass_unix"`
	// Quarantined counts log segments parked by a corrupt-record merge
	// abort: still scanned on recovery, never compacted, their data
	// readable but held back until an operator intervenes. A nonzero
	// value is the signal that detected corruption is pinned in place
	// (detect-only backend, nothing to rebuild from).
	Quarantined int `json:"quarantined_segments"`
}

// Counters is what one shard counts and what the set aggregates: both
// ShardStats and Stats embed it. Set.Stats sums every field over the
// shards (Counters.add) except LastFullPass, which is the oldest shard's.
type Counters struct {
	// Gets counts reads served by the worker goroutine; FastGets counts
	// reads served on the concurrent fast path (callers' goroutines,
	// checksum-verified, no worker hop). Total reads = Gets + FastGets.
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
	Dels uint64 `json:"dels"`
	Hits uint64 `json:"hits"`
	// Fast-path accounting. FastFallbacks counts reads bounced to the
	// worker because the reader gate was unavailable (a group commit,
	// save, crash image, scrub, or recovery window); FastFaults counts
	// reads bounced because they hit a fault — poison or checksum
	// mismatch — that only the worker's repairing read path may fix.
	// Tests assert FastGets > 0 to prove the fast path engaged.
	FastGets      uint64 `json:"fast_gets"`
	FastHits      uint64 `json:"fast_hits"`
	FastFallbacks uint64 `json:"fast_fallbacks"`
	FastFaults    uint64 `json:"fast_faults"`
	// Errors counts failed data operations.
	Errors uint64 `json:"errors"`
	// Batches counts group commits: store batches that carried more than
	// one operation. BatchedOps is the operations they carried, so
	// BatchedOps/Batches is the shard's achieved group size.
	Batches    uint64 `json:"batches"`
	BatchedOps uint64 `json:"batched_ops"`
	// GroupFallbacks counts groups whose batch failed and whose ops were
	// retried individually.
	GroupFallbacks uint64 `json:"group_fallbacks"`
	// CommitWaits counts groups the worker's one yield deepened: the
	// queue ran dry, and after the yield (Settled) more requests joined.
	CommitWaits uint64 `json:"commit_waits"`
	// Scan chunk accounting, mirroring the Get split: FastScans counts
	// chunks served on the concurrent fast path (view scans under the
	// reader gate, no worker hop) and Scans counts chunks served by the
	// worker's repairing path; ScanFallbacks/ScanFaults count chunks —
	// live and snapshot — bounced to the worker by cause (gate
	// busy vs a fault needing repair). Pairs are the key/value
	// pairs the chunks returned. Tests assert FastScans > 0 to prove
	// fast-path scans engage.
	Scans         uint64 `json:"scans"`
	ScanPairs     uint64 `json:"scan_pairs"`
	FastScans     uint64 `json:"fast_scans"`
	FastScanPairs uint64 `json:"fast_scan_pairs"`
	ScanFallbacks uint64 `json:"scan_fallbacks"`
	ScanFaults    uint64 `json:"scan_faults"`
	ScrubHealth
	// Snapshot accounting. SnapScans counts pinned-generation scan chunks
	// served on either path (fast readers and the worker fallback);
	// SnapshotPins is the currently pinned distinct generations and
	// VersionsHeld the superseded versions the version buffer retains
	// for them — both fall back to zero when the last snapshot releases.
	SnapScans     uint64 `json:"snap_scans"`
	SnapScanPairs uint64 `json:"snap_scan_pairs"`
	SnapshotPins  int    `json:"snapshot_pins"`
	VersionsHeld  int    `json:"versions_retained"`
	Objects       int    `json:"objects"`
	Bytes         uint64 `json:"bytes"`
	// Log-backend counters, zero on pangolin shards: Segments is the
	// current segment file count; Compactions counts merged (deleted)
	// segments; MergedRecords counts live records compaction copied
	// forward; DeadRecords is the currently reclaimable record count
	// (overwritten or deleted entries still occupying log space).
	Segments      int    `json:"segments"`
	Compactions   uint64 `json:"compactions"`
	MergedRecords uint64 `json:"merged_records"`
	DeadRecords   uint64 `json:"dead_records"`
}

// add sums o into c, every numeric field including the embedded
// ScrubHealth's, so a counter added to Counters needs no edit here.
func (c *Counters) add(o *Counters) {
	addFields(reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem())
}

func addFields(dst, src reflect.Value) {
	for i := range dst.NumField() {
		switch d, s := dst.Field(i), src.Field(i); d.Kind() {
		case reflect.Struct:
			addFields(d, s)
		case reflect.Uint64:
			d.SetUint(d.Uint() + s.Uint())
		case reflect.Int, reflect.Int64:
			d.SetInt(d.Int() + s.Int())
		}
	}
}

// ShardStats carries one shard's counters.
type ShardStats struct {
	Index int `json:"index"`
	// Backend names this shard's storage backend ("pangolin" or
	// "logstore").
	Backend string `json:"backend"`
	Counters
}

// Stats aggregates the set's counters.
type Stats struct {
	Structure string `json:"structure"`
	// Backends names the backend every shard runs ("pangolin" or
	// "logstore").
	Backends  string `json:"backends"`
	NumShards int    `json:"num_shards"`
	Counters
	Shards []ShardStats `json:"shards"`
}
