// Package server exposes a shard.Set — the six persistent key-value
// structures of §4.5, hash-partitioned across independent Pangolin pools —
// as a concurrent network service, with a matching Client. It is the
// serving layer the ROADMAP's production trajectory builds on: cmd/pglserve
// wraps it in a binary and cmd/pglload drives it closed-loop.
//
// # Why sharding
//
// Pangolin transactions are per-goroutine, and two concurrent transactions
// must not modify the same object (§3.4); a single pool therefore
// serializes writers. The service scales by hash-partitioning the key
// space across N pools (internal/shard): each shard pool is owned by
// exactly one worker goroutine, every operation is routed to its shard's
// worker over a channel, and transactions on different shards commit in
// parallel. Adding shards adds commit parallelism without weakening any
// of the paper's protection mechanisms, because each pool keeps its own
// checksums, parity, and logs.
//
// Keys choose their shard via the splitmix64 finalizer modulo the shard
// count, so sequential key patterns still spread uniformly. The mapping is
// stable — it determines which pool holds which key — and each shard
// pool's root records the structure, the shard index, and the set size, so
// reopening detects shuffled or foreign shard files.
//
// # Group commit
//
// A Pangolin commit pays a durable log append, a persist fence, and a
// parity fold per transaction (§3.4), so one-transaction-per-request
// caps throughput at the fence rate. Each shard worker therefore
// group-commits: after taking one request it opportunistically drains
// whatever else its queue holds — never waiting, so an idle server adds
// no latency — and executes the whole group inside one pool transaction:
// one log persist, one fence, one parity pass, then an individual reply
// to every waiter. The commit is the linearization point for the group.
// If the group's transaction fails, nothing has reached NVMM; the worker
// retries each operation in its own transaction so one poisoned op
// cannot fail its batchmates, and each waiter gets its own verdict.
// STATS reports the achieved grouping per shard (batches, batched_ops,
// group_fallbacks).
//
// # Concurrent verified reads
//
// GET does not take the worker hop at all when it can avoid it.
// Pangolin's design point is that readers verify per-object checksums
// straight from NVMM and run concurrently — only updates need the
// transaction machinery (§3.3) — so each shard keeps a second instance
// of its structure attached to the pool's read view, and a GET executes
// a checksum-verified Lookup on the connection handler's own goroutine.
// A per-shard reader/writer gate coordinates the two populations:
// readers share the gate and run in parallel; the worker takes the
// write side around every pool access, so the group commit — still the
// shard's linearization point — excludes readers only while it runs.
// Verification is remembered per object in the engine's verified-read
// table, one bit per heap slot that a reader sets and a commit clears
// for exactly the objects it wrote (an object is re-verified only after
// a commit actually wrote it), and capped by size (very large array objects keep header + poison
// checks and rely on scrubbing, as under the default verify policy).
//
// Readers never block on the gate. If it is unavailable — a commit,
// save, crash image, scrub, or recovery window — or the read hits a
// fault that needs online repair, the GET falls back to the worker
// queue, whose repairing read path serializes with everything else.
// An MGET whose slice for a shard is all reads takes the same fast path
// with one gate hold for the slice. STATS separates the populations:
// fast_gets/fast_hits count fast-path reads, gets counts worker reads,
// and fast_fallbacks/fast_faults count bounced reads by cause, so a
// load run can prove the fast path actually engaged (pglserve
// -serial-reads disables it entirely for A/B runs; scripts/loadtest.sh
// measures both and emits the ratio in compare.json).
//
// # Ordered range scans
//
// SCAN serves the five ordered structures' differentiator — bounded,
// ascending iteration — through every layer. Keys are hash-partitioned,
// so each shard holds an arbitrary but disjoint subset of a range; the
// server streams each shard's in-range pairs ascending and k-way
// heap-merges the streams into globally ordered, duplicate-free output
// (the unordered hashmap still scans completely: its per-shard chunks
// are k-smallest selections over a full pass, so merged output is
// ordered for every structure). Shards are consumed in fixed-size
// chunks under the per-shard reader gate — the gate is released and
// re-acquired every chunk (shard.ScanChunkPairs pairs), so a long scan
// never starves a shard's group commits — with the same two-population
// split as GET: chunks run checksum-verified on the connection
// handler's goroutine against the shard's ReadView when the gate is
// free, and fall back to the worker queue when it is busy or the chunk
// hits a fault needing repair. STATS reports fast_scans/fast_scan_pairs
// vs scans/scan_pairs, plus scan_fallbacks/scan_faults by cause.
//
// SCAN's consistency is per-chunk commit-consistency: every chunk
// observes a single committed image of its shard (commits are excluded
// while the chunk runs, so no torn pairs and no uncommitted values),
// but a scan that spans several chunks, pages, or shards composes
// images taken at different moments — a pair committed behind the
// cursor after its chunk ran is missed, and a pair committed ahead of
// the cursor appears. When the whole scan must observe exactly one
// committed state while writes proceed, use SNAPSCAN (or Backup for the
// whole keyspace): it pins a generation per shard at open and every
// page resolves at those generations — see "Snapshots and backup"
// below.
//
// A SCAN request carries lo, hi, limit, cursor; the scan starts at
// max(lo, cursor) — pass cursor 0 to start a fresh scan — and returns
// at most limit pairs (limit 0, or above MaxScanPairs (4096), asks for
// a full frame). The response body leads with a more byte and a
// next-cursor: while more is 1, repeating the request with cursor set
// to next-cursor continues the scan exactly where the previous page
// ended, with no gaps and no repeats (the cursor is a plain key, so it
// remains valid across reconnects and server restarts). When more is 0
// the range is exhausted and next-cursor is meaningless.
//
// Clients feed that window two ways: many connections (concurrent
// single-op requests against one shard group together), or the batch ops
// MGET/MPUT/MDEL, which carry many operations in one frame. A batch
// request is partitioned by shard; each shard's slice executes inside
// one transaction (atomically — unless that shard falls back as above,
// when per-op statuses in the response tell which ops failed), different
// shards commit concurrently, and there is no atomicity across shards.
// Ops for one key always land on one shard, so per-key ordering within a
// batch is preserved.
//
// # Snapshots and backup
//
// SNAPSCAN (op 14) reads one committed state of the whole set while
// group commits proceed. Opening a snapshot pins every
// shard's current committed generation — each pin is serialized onto
// its shard's worker, so it lands between group commits, never inside
// one — and the pins together form the set-level snapshot vector. From
// then on the shard's engine preserves the pre-image of every object a
// commit overwrites in a bounded per-shard version buffer, and every
// snapshot read resolves at exactly the pinned generation: superseded
// versions win over live bytes, keys inserted after the pin are masked
// out, keys deleted after the pin are restored. A paginated SNAPSCAN
// therefore sees one state end to end, no matter how many commits land
// while it pages.
//
// Backup is a SNAPSCAN loop on its own connection: it dials a Client,
// pages SnapScan(0, ^uint64(0)) in full MaxScanPairs frames, and hands
// every pair to its callback in ascending key order. The terminal page
// releases the pins; an early stop, a cancelled context, or a failure
// closes the connection, which releases them too.
//
// The contract's edges are typed, never silent:
//
//   - Pin lifetime. A SNAPSCAN's pins are held by the connection: the
//     terminal page (more = 0) releases them, and closing the
//     connection releases whatever is still open — an abandoned scan
//     cannot leak pins past its connection. A connection holds at most
//     MaxConnSnapshots (4) snapshots at once; further opens are
//     refused until one finishes.
//   - Bounded retention. Preserved versions cost memory on the write
//     path, so each shard caps them (store.DefaultMaxPins distinct
//     pinned generations, store.DefaultMaxVersions preserved
//     versions); the oldest pin is evicted past a cap. Reads of an
//     evicted — or released — snapshot fail with SNAP_TOO_OLD
//     (ErrSnapshotTooOld via errors.Is): reopen and rescan, never a
//     page of mixed-generation data.
//   - Capability. A backend that cannot preserve versions must not
//     pretend: opening a snapshot over a set with any
//     snapshot-incapable shard fails whole with SNAP_UNSUPPORTED
//     (ErrSnapshotUnsupported), releasing any pins already taken,
//     rather than pinning some shards and silently reading the rest
//     live. Both in-repo backends (pangolin, logstore) implement the
//     capability.
//   - Cursor modes. A snapshot cursor continues its snapshot (the
//     request carries the snapshot id the first page returned); a live
//     SCAN cursor continues a live scan. Presenting a continuation
//     cursor without its snapshot id, or an id nobody opened, is
//     refused with CURSOR_MODE (ErrCursorMode) — the two modes promise
//     different consistency, so a page never silently continues in the
//     other one. The Client's SnapScanner makes the mix impossible by
//     construction: it owns its snapshot id and cursor privately.
//
// STATS accounts for the machinery: snap_scans/snap_scan_pairs count
// snapshot reads per shard, and the gauges snapshot_pins and
// versions_retained expose the live cost of open pins, so an operator
// can see a leaked or long-lived snapshot as a versions_retained
// plateau. scripts/loadtest.sh gates on the whole path: a Backup taken
// under sustained writes is restored into a fresh set and must pass
// `pglpool check`.
//
// # Background maintenance (online scrubbing)
//
// Checksums and parity only help if corruption is found and repaired
// while the pool keeps serving traffic (§3.3 "online scrubbing"). The
// serving layer therefore runs a maintenance scheduler (pglserve
// -scrub-interval, shard.Options.ScrubInterval): every interval it
// offers ONE bounded scrub step to the next shard round-robin, routed
// through that shard's worker queue so it serializes with commits
// exactly like any other pool access. A step verifies and repairs a
// capped chunk — by default at most 8 poisoned pages, or 64 live-object
// checksums, or 256 KB of the parity invariant
// (pangolin.ScrubberConfig) — under a freeze window bounded by those
// caps, and a shard's full-pool integrity is the fixpoint the steps
// converge to: known-bad pages are drained first every step, then a
// cursor walks the live objects, then the parity zones, and the pass
// completes when the cursor wraps.
//
// Backpressure is absolute: a step is skipped (counted as a
// scrub_backoff) whenever the shard's worker has queued requests, so a
// busy worker always wins and the scrubber consumes only idle moments.
// The cost trade is the usual scrub-rate-vs-MTTR one: a short interval
// shrinks the window in which unread corruption can accumulate a second
// overlapping fault (which parity cannot repair) at the price of more
// background work; a long interval is nearly free but leaves cold data
// unverified longer. The single knob to reason with is the full-pass
// time ≈ interval × shards × steps-per-pass, where steps-per-pass ≈
// live_objects/64 + parity_bytes/256K per shard; scrub health in STATS
// (scrub_steps, bg_repairs, scrub_backoffs, scrub_errors — failing
// steps, the stuck-cursor signal — and last_full_pass_unix, the OLDEST
// shard's pass time, 0 while any shard has never completed one) lets an
// operator watch that bound rather than guess it. Reads that
// stumble on corruption first still heal on the spot through the worker
// read path, so the scrubber only ever shortens time-to-repair for data
// no client has touched.
//
// # Storage backends
//
// Each shard's engine is selected at creation (pglserve -backend):
// "pangolin" (the paper's engine) or "logstore" (the append-only,
// bitcask-style baseline), or a comma list cycled across shards so one
// server mixes both. Reopening a directory rediscovers every shard's
// backend from its on-disk form; no flag is consulted. The wire
// protocol is backend-agnostic — the same verbs run against either —
// but capability edges show through honestly: INJECT's reply counts
// the injection-capable shards alongside the injected faults (log
// shards have no fault-injection layer beneath them, so a pglload
// -faults run against an all-log set fails fast instead of timing out
// on a heal gate that can never pass), and a log shard's scrub step is
// a CRC verify sweep or a compaction merge rather than a parity
// repair. STATS carries the per-shard "backend"
// name, the set-level "backends" list, and the log engine's counters
// (segments, compactions, merged_records, dead_records), so an
// operator — or the loadtest's A/B phase, via pglload -backend — can
// prove which engine served a run.
//
// # Background scrub wire verb
//
// SCRUB (op 11) is the wire verb: mode 0 reads the health block; mode 1
// triggers a full pass on every shard and waits for it. Even the
// triggered pass is incremental — each shard's worker steps a fresh
// scrub cursor to completion BETWEEN serving its queued requests, so an
// operator-initiated pass never stalls the pool either; concurrent
// SCRUB requests against one shard coalesce into the same pass. The
// response's report carries checksums_verified: false in checksum-less
// modes, where "0 bad objects" means "not checked", not "verified
// clean". INJECT (op 12) is the matching test-harness verb (like
// CRASH): it corrupts count pseudo-randomly chosen live objects —
// alternating software scribbles and media-error poison by seed — so
// the loadtest's corruption-healing phase can prove injected faults are
// healed under live traffic with zero client-visible errors.
//
// Durability is snapshot-per-shard (pangolin.PoolSet): shard i persists as
// dir/shard-000i.pgl. SYNC saves every shard from its own worker, so a
// save never races a transaction. CRASH writes a *crash image* of every
// shard instead — unpersisted cache lines randomly evicted or reverted,
// exactly like a power failure — after which the process is expected to
// exit without syncing; reopening the directory runs per-shard crash
// recovery. Every shard file is a standard pool snapshot, so
// `pglpool check` can verify and repair each one independently.
//
// # Wire protocol
//
// The protocol is length-prefixed binary over TCP. Every message is one
// frame; a connection opens with one seqless HELLO exchange, after which
// every request and response carries a sequence number:
//
//	frame    := length(uint32 BE) payload        length excludes itself
//	hello    := 13(1 B) magic version window     seqless, first frame only
//	ack      := status(1 B) version window        seqless
//	request  := seq(uint64 BE) op(1 B) field*    field = uint64 BE
//	response := seq(uint64 BE) status(1 B) body*  any order
//
// The first frame must be a HELLO (op 13) carrying HelloMagic and
// offering ProtocolV2; the ack grants the in-flight window (see
// "Pipelining" below). Any other first frame — a plain request, opcode
// 13 without the magic, garbage — is answered with one seqless ERR and
// the connection is closed.
//
// Requests (field layout after the opcode byte):
//
//	GET   (1)  key                 value lookup
//	PUT   (2)  key value           insert or update
//	DEL   (3)  key                 delete
//	STATS (4)  —                   per-shard and aggregate counters
//	SYNC  (5)  —                   save all shard snapshots
//	CRASH (6)  seed                simulate machine power failure
//	MGET  (7)  key*                batch lookup, N = (len-1)/8 ops
//	MPUT  (8)  (key value)*        batch insert/update, N = (len-1)/16 ops
//	MDEL  (9)  key*                batch delete, N = (len-1)/8 ops
//	SCAN  (10) lo hi limit cursor  ordered range scan from max(lo, cursor)
//	SCRUB (11) mode                mode 0: scrub health; mode 1: run a full
//	                               pass (incremental, traffic interleaved)
//	INJECT(12) seed count          corrupt count random live objects
//	                               (fault-injection test hook, like CRASH)
//	HELLO (13) magic version window  first frame only, seqless: negotiate
//	                               the protocol with a requested
//	                               in-flight window (0 = default)
//	SNAPSCAN (14) lo hi limit cursor snapid  snapshot-consistent scan page;
//	                               snapid 0 + cursor 0 opens a snapshot,
//	                               later pages carry the returned snapid
//
// Batch ops carry no explicit count — the frame length delimits them — but
// the payload must be a whole number of ops, at least 1 and at most
// MaxBatchOps (4096); a batch larger than each shard's group-commit
// window (shard.Options.MaxBatch, default 64) still executes, split into
// several transactions per shard.
//
// Responses:
//
//	OK        (0)  GET → value(uint64 BE); STATS → JSON (shard.Stats);
//	               PUT, DEL, SYNC, CRASH → empty;
//	               MGET → N × (status(1 B) value(uint64 BE));
//	               MPUT, MDEL → N × status(1 B);
//	               SCAN → more(1 B) next-cursor(uint64 BE)
//	                      (key(uint64 BE) value(uint64 BE))*,
//	               at most MaxScanPairs pairs per frame, ascending,
//	               N = (len-10)/16;
//	               SCRUB → JSON (server.ScrubStatus);
//	               INJECT → injected(uint64 BE) capable-shards(uint64 BE)
//	                        total-shards(uint64 BE);
//	               SNAPSCAN → snapid(uint64 BE) more(1 B)
//	                          next-cursor(uint64 BE)
//	                          (key(uint64 BE) value(uint64 BE))*,
//	                          the terminal page (more 0) releases the
//	                          snapshot
//	NOT_FOUND (1)  GET or DEL of an absent key; empty body
//	ERR       (2)  body is a UTF-8 error message
//	CORRUPT   (3)  the op failed on detected, unrepaired corruption
//	               (pangolin.IsCorruption server-side)
//	POISON    (4)  the op failed on a media error
//	               (pangolin.IsPoison server-side)
//	SHUTDOWN  (5)  the shard set is shutting down
//	SNAP_TOO_OLD     (6)  the snapshot's pinned generation was evicted
//	                      or released (ErrSnapshotTooOld)
//	SNAP_UNSUPPORTED (7)  a shard backend lacks the snapshot capability
//	                      (ErrSnapshotUnsupported)
//	CURSOR_MODE      (8)  cursor presented to the wrong scan mode
//	                      (ErrCursorMode)
//
// Failures are classified so the client rebuilds the in-process error
// taxonomy across the network: errors.Is(err, ErrShuttingDown),
// pangolin.IsCorruption(err), and pangolin.IsPoison(err) hold on a
// Client exactly as they would in-process. The body is a UTF-8 message
// for every status >= ERR.
//
// Batch responses answer every op: records are in request order, one per
// op, each carrying a per-op status — 0 (OK), 1 (not found: MGET/MDEL of
// an absent key), or 2 (that op failed: its per-op fallback transaction
// errored, or its shard was already shut down and executed nothing). An
// MGET record's value bytes are meaningful only under status 0. A
// malformed batch (ragged payload, zero ops, > MaxBatchOps) is rejected
// whole with ERR.
//
// Frames are capped at 1 MB (MaxFrame); a larger length prefix is treated
// as a corrupt stream and the connection is dropped.
//
// # Pipelining
//
// One in-flight request per connection caps a connection's throughput
// at the network round trip, and — worse for this design — it keeps
// the shard workers' queues shallow, so the group commit has nothing
// to group: the per-fence amortization the workers were built for
// needs a standing supply of queued operations. The sequence-numbered
// protocol exists to keep that supply full from a single connection.
//
// After the HELLO handshake (the reply to a HELLO is a seqless OK whose
// body is version(uint64 BE) window(uint64 BE) — the negotiated
// protocol and the granted in-flight window, min(requested, MaxWindow),
// DefaultWindow when 0 is requested), every request carries a
// client-chosen 8-byte sequence number and every response echoes one.
// Replies arrive in completion order, not request order; the sequence
// number is the only correlation. The server splits each connection
// into independent stages:
//
//   - a reader goroutine decodes frames and dispatches them: PUT and
//     DEL are submitted asynchronously into their shard worker's queue
//     (a completion callback replaces the per-request blocking wait, so
//     one connection can have operations queued on every shard at
//     once — this is what multiplies group-commit depth); GET runs the
//     concurrent verified-read fast path inline, falling back to the
//     worker queue; the multi-shard verbs (batches, SCAN, SNAPSCAN,
//     STATS, SYNC, SCRUB, INJECT, CRASH) each run on their own bounded
//     goroutine;
//   - a writer goroutine streams completed replies to the wire in
//     completion order, flushing when the queue goes empty, so replies
//     coalesce into few syscalls under load.
//
// The granted window bounds everything: the reader stops reading while
// window ops are in flight, so overload behavior is plain TCP
// backpressure (the client's sends eventually block), and the window
// also sizes the server's per-connection completion buffering — a
// completion can never block a shard worker on a slow or dead
// connection. Every dispatched operation resolves: on connection loss
// the writer drains and discards, and on shard-set shutdown the
// operation fails with SHUTDOWN (ErrShuttingDown client-side) — never
// a silent drop.
//
// Execution order follows completion, not submission: two operations in
// flight on one connection may execute in either order (a GET pipelined
// behind a PUT of the same key may run first and miss it — reads go
// inline on the reader while writes queue on the shard workers). An
// operation's effect is visible to everything submitted after its reply
// resolves; pipeline only independent operations, and sequence a
// dependent one by waiting on its predecessor's reply (or future)
// first.
//
// # Buffer ownership
//
// Every hot-path wire buffer — completion frames on the server,
// request frames on the client — comes from one sync.Pool of frame
// buffers (pool.go), laid out as [4-byte length][payload] so header and
// payload leave in a single write. Recycling only works because frame
// lifetime follows one rule on both sides:
//
//		getter → (optional worker callback) → connection writer → pool
//
//	  - Whoever fetches a frame (the reader's completion path on the
//	    server, submit on the client) owns it exclusively while building
//	    the payload, and transfers ownership by queueing it for the
//	    connection's writer goroutine.
//	  - The writer releases the frame back to the pool the moment its
//	    bytes reach the bufio layer. From then on the memory may be
//	    scribbled by anyone; nothing is allowed to retain a pointer into
//	    a frame past the hand-off.
//	  - Anything that must outlive the frame is copied out first. A
//	    shard completion callback receives its GET value as a scalar and
//	    encodes it into the completion frame it owns; the client's
//	    readLoop copies each reply body out of the reused read buffer
//	    (small bodies into an inline array) before resolving the op, so
//	    values returned to callers are owned copies, valid forever —
//	    never aliases into a buffer the next frame will overwrite.
//
// The same copy-out rule covers the layers below: store.Store.Apply
// returns a result slice that is store-owned scratch, valid only until
// the next Apply, and the shard worker consumes it synchronously before
// touching the store again; the worker's []BatchResult slices are
// pooled and recycled by the receiver after the single delivery.
//
// The contract is enforced, not just documented: the poisoned-frame
// tortures (poison_test.go) scribble every released frame with 0xDB
// while GET/MGET/SNAPSCAN storms verify returned values against a known
// model under -race, so a retained alias fails deterministically.
//
// # Adaptive group commit
//
// A shard worker first drains whatever is already queued into one
// group. When the queue has been running deep — the worker keeps an
// EWMA of recent group depth, and the window engages once it reaches 2
// — the worker then waits a bounded micro-window for requests still in
// flight between the submitters and the queue, deepening the batch
// exactly when traffic can fill it: per-commit costs (log persist,
// fence, parity) amortize over more operations. The window is the
// EWMA's fraction of the batch cap scaled into shard.Options.CommitWait
// (default 100µs; pglserve -commit-wait), capped there, and skipped
// entirely when the group is already full, a barrier op is pending, or
// the load is lockstep (EWMA ~1) — an idle connection's single op
// always commits immediately, so the knob trades at most CommitWait of
// latency for depth only under pipelined load. STATS reports
// commit_waits alongside batches/batched_ops so a run can show how
// often the window engaged.
//
// # Client
//
// Dial(ctx, addr, opts...) returns a pipelined Client, its HELLO
// handshake done. A Client is safe for concurrent use by any
// number of goroutines and is designed to be shared: concurrent calls
// interleave on the one connection's window, which is exactly what
// keeps server-side group commits deep. The synchronous methods (Get,
// Put, Del, MGet, MPut, MDel, Scan, Scrub, ...) keep their original
// signatures — each claims a window slot, ships its frame, and blocks
// for its own reply. GetAsync/PutAsync/DelAsync submit without
// blocking and return typed futures; Pipeline(ctx) batches submissions
// and collects every outcome with one Wait. WithPipelineDepth requests
// the window, WithDialTimeout and WithRequestTimeout bound connect and
// per-op waits, and a context cancellation abandons only the wait — the
// operation stays in flight and resolves when its reply arrives.
//
// Failure semantics are explicit: per-op failures (including the typed
// CORRUPT/POISON/SHUTDOWN statuses) resolve that op alone and leave the
// connection healthy; a wire or protocol failure (broken socket, bad
// frame, unknown sequence number) is fatal — every in-flight and
// subsequent operation resolves with the error, and Err reports it.
// Close resolves everything in flight with ErrClientClosed. No
// operation, under any teardown order, is dropped without an answer.
package server
