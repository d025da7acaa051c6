// Command pglload is a closed-loop load generator for pglserve: N client
// connections each keep exactly one request in flight until the target
// operation count is reached, then the run is summarized as one JSON
// object on stdout — ops/sec, latency percentiles, mix, server stats —
// so successive PRs can track a throughput trajectory.
//
//	pglserve -dir /tmp/kvset -shards 4 &
//	pglload -addr 127.0.0.1:7499 -clients 32 -ops 100000
//
// The workload is keys uniform in [0, -keys), with a scan/put/get/del
// mix set by -scans, -reads and -dels (the remainder is puts): -reads
// 0.9 -dels 0.02 is the read-heavy mix scripts/loadtest.sh uses to
// measure the concurrent read fast path against the worker-serialized
// baseline (pglserve -serial-reads), and -reads 0.8 -scans 0.1 is its
// scan phase. A scan op issues one SCAN frame of up to -scan-limit
// pairs from a uniform lo bound and verifies the response client-side —
// ascending, duplicate-free, bound-respecting — counting any violation
// as an error; the report carries scan_pairs and scan_ops_per_sec, and
// server_stats carries fast_scans so a run can assert the scan fast
// path engaged (-scans requires -batch 1). The server_stats block also
// carries fast_gets/fast_fallbacks, so a run can assert which read path
// served it. With -batch N each client
// sends MGET/MPUT/MDEL frames of N operations instead of single-op
// frames, exercising the server's group-commit path; reported ops and
// ops/sec still count individual operations, while the latency
// percentiles describe whole round trips (one frame at -batch 1, one
// batch otherwise). With -pipeline N each connection carries N
// closed-loop workers concurrently — the client is pipelined, so up to
// N requests ride one connection's in-flight window at once, and the
// server folds the deeper shard queues into bigger group commits; the
// report's group_batch_mean (batched_ops/batches from server_stats)
// shows the achieved batch depth. With -faults N the run doubles as the
// corruption-healing gate: a side connection INJECTs N live faults
// while the load runs, a few more after it stops (so a read can't heal
// everything first), and the run exits nonzero unless the server's
// background scrubber (pglserve -scrub-interval) reports bg_repairs > 0
// within -heal-wait — injected corruption healed under live traffic
// with zero client-visible errors. A -faults run fails fast (before the
// load finishes) when the server reports that no shard backend supports
// injection at all: waiting for bg_repairs against a set that cannot be
// corrupted would only ever time out. With -crash-after the run ends by sending CRASH,
// killing the server after it writes per-shard crash images; `pglpool
// check <dir>/shard-*.pgl` then verifies every recovered shard.
//
// -snapscans mixes in snapshot-consistent scans: each op opens a
// pinned-generation SNAPSCAN over a window of the key space and pages
// it to completion, verifying ascending order and bounds per page; the
// report carries snap_scan_pairs and snapshot_scan_ops_per_sec, and
// server_stats carries snap_scans plus the version-buffer gauges
// (snapshot_pins, versions_retained). A scan whose pin the server's
// bounded version buffer evicts mid-flight fails with the typed
// ErrSnapshotTooOld; that is the retention cap working as documented,
// so it counts as snap_evictions in the report, not as an error.
//
// Two standalone modes exercise the backup path end to end. -backup
// FILE pages a snapshot-consistent image of the whole keyspace
// (server.Backup, a SNAPSCAN loop on its own connection) to FILE
// (16-byte little-endian key,value records) — run it while a
// separate pglload drives writes to prove one generation-consistent
// image emerges from under them; the report's versions_retained is the
// peak the server's version buffers reached while the stream ran.
// -restore FILE loads such a file back through MPUT batches and SYNCs,
// after which `pglpool check` on the restored shard files is the
// loadtest's backup gate.
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pangolin-go/pangolin/server"
)

type latencyMS struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

type report struct {
	Addr     string `json:"addr"`
	Clients  int    `json:"clients"`
	Batch    int    `json:"batch"`
	Pipeline int    `json:"pipeline"`
	// Backend echoes the server's STATS backends field when -backend
	// asked for a specific engine, so A/B reports are self-labeling.
	Backend    string  `json:"backend,omitempty"`
	Ops        uint64  `json:"ops"`
	Errors     uint64  `json:"errors"`
	ElapsedSec float64 `json:"elapsed_sec"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	// Scan accounting: ScanPairs is the pairs all SCAN responses
	// carried; ScanOpsPerSec is the SCAN round-trip rate (0 when the
	// mix has no scans). The SnapScan fields mirror them for the
	// snapshot-consistent scans -snapscans mixes in (an "op" is one
	// whole paginated snapshot scan, opened, drained, and released);
	// VersionsRetained echoes the server's end-of-run versions_retained
	// gauge — superseded versions still pinned by open snapshots.
	ScanPairs         uint64  `json:"scan_pairs"`
	ScanOpsPerSec     float64 `json:"scan_ops_per_sec"`
	SnapScanPairs     uint64  `json:"snap_scan_pairs"`
	SnapScanOpsPerSec float64 `json:"snapshot_scan_ops_per_sec"`
	// SnapEvictions counts snapshot scans aborted by ErrSnapshotTooOld:
	// the server's bounded version buffer evicted their pin under load.
	// That is the documented outcome of the retention cap — the scan
	// fails typed instead of serving weaker pages — so it is not a
	// client error, but a plateau here under light snapshot load would
	// mean the caps are too tight for the mix.
	SnapEvictions    uint64            `json:"snap_evictions,omitempty"`
	VersionsRetained int               `json:"versions_retained"`
	Latency          latencyMS         `json:"latency_ms"`
	Mix              map[string]uint64 `json:"mix"`
	// GroupBatchMean is the server's achieved group-commit depth —
	// batched_ops/batches from server_stats — the number pipelining is
	// supposed to raise (deeper in-flight windows keep shard worker
	// queues full, so each persist fence covers more operations).
	GroupBatchMean float64 `json:"group_batch_mean,omitempty"`
	// Client-process allocation pressure over the load window, from
	// runtime/metrics: AllocBytesPerOp is the heap-alloc byte delta
	// divided by completed ops, and GCPauseP99 the p99 stop-the-world
	// pause (seconds) among pauses that occurred during the run. Both
	// are recorded for trend-watching, not gated — single-core CI makes
	// wall-clock-adjacent numbers too noisy to fail a build on, but a
	// drift here across PRs flags a hot-path allocation regression on
	// the client side the same way the server-side budgets do.
	AllocBytesPerOp float64       `json:"alloc_bytes_per_op"`
	GCPauseP99      float64       `json:"gc_pause_p99"`
	Server          *server.Stats `json:"server_stats,omitempty"`
	CrashSent       bool          `json:"crash_sent"`
	// Corruption-healing accounting (with -faults): how many live
	// objects INJECT corrupted during and after the load, and whether
	// the server's background scrubber reported bg_repairs > 0 within
	// -heal-wait afterwards. A -faults run exits nonzero when Healed is
	// false — the corruption-healing gate.
	FaultsInjected uint64 `json:"faults_injected,omitempty"`
	Healed         bool   `json:"healed,omitempty"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7499", "server address")
	clients := flag.Int("clients", 32, "concurrent closed-loop clients")
	ops := flag.Uint64("ops", 100_000, "total operations")
	keys := flag.Uint64("keys", 1<<16, "key space size")
	reads := flag.Float64("reads", 0.5, "fraction of GETs")
	dels := flag.Float64("dels", 0.1, "fraction of DELs")
	scans := flag.Float64("scans", 0, "fraction of SCANs (each one SCAN frame; requires -batch 1)")
	snapScans := flag.Float64("snapscans", 0, "fraction of snapshot scans (each a full paginated SNAPSCAN over a key-space window; requires -batch 1)")
	scanLimit := flag.Int("scan-limit", 64, "pairs requested per SCAN frame")
	seed := flag.Int64("seed", 1, "workload seed")
	backend := flag.String("backend", "",
		"expected server backends (the STATS backends field, e.g. \"logstore\" or \"pangolin,logstore\"); nonempty makes the run label its report with the backend and exit nonzero on a mismatch — the A/B phase's guard against measuring the wrong engine")
	batch := flag.Int("batch", 1, "operations per client frame (1 = single-op GET/PUT/DEL, >1 = MGET/MPUT/MDEL)")
	pipeline := flag.Int("pipeline", 1, "closed-loop workers per connection (each keeps one request in flight, so N workers pipeline N requests on one connection)")
	crashAfter := flag.Bool("crash-after", false, "send CRASH when done (server dies with crash images)")
	faults := flag.Int("faults", 0, "live faults to INJECT while the load runs (corruption-healing phase); the run then waits for the server's background scrubber to report bg_repairs > 0")
	faultEvery := flag.Duration("fault-every", 50*time.Millisecond, "pause between INJECT frames")
	healWait := flag.Duration("heal-wait", 15*time.Second, "how long to wait, after the load, for bg_repairs > 0 (with -faults)")
	backupFile := flag.String("backup", "", "standalone mode: write a snapshot-consistent image of the whole keyspace (a SNAPSCAN loop) to this file and exit")
	restoreFile := flag.String("restore", "", "standalone mode: load a -backup file back into the server via MPUT batches, SYNC, and exit")
	flag.Parse()
	if *backupFile != "" {
		runBackup(*addr, *backupFile)
		return
	}
	if *restoreFile != "" {
		runRestore(*addr, *restoreFile)
		return
	}
	if *reads+*dels+*scans+*snapScans > 1 {
		log.Fatal("pglload: -reads + -dels + -scans + -snapscans exceed 1")
	}
	if *batch < 1 || *batch > server.MaxBatchOps {
		log.Fatalf("pglload: -batch must be in [1, %d]", server.MaxBatchOps)
	}
	if (*scans > 0 || *snapScans > 0) && *batch != 1 {
		log.Fatal("pglload: -scans and -snapscans require -batch 1 (a scan is its own frame)")
	}
	if *scanLimit < 1 || *scanLimit > server.MaxScanPairs {
		log.Fatalf("pglload: -scan-limit must be in [1, %d]", server.MaxScanPairs)
	}
	if *pipeline < 1 || *pipeline > server.MaxWindow {
		log.Fatalf("pglload: -pipeline must be in [1, %d]", server.MaxWindow)
	}

	var (
		opCount     atomic.Uint64 // ops claimed
		opsDone     atomic.Uint64 // ops completed
		errCount    atomic.Uint64
		gets        atomic.Uint64
		puts        atomic.Uint64
		delOps      atomic.Uint64
		scanOps     atomic.Uint64
		scanPairs   atomic.Uint64
		snapOps     atomic.Uint64
		snapPairs   atomic.Uint64
		snapEvicted atomic.Uint64
	)
	workers := *clients * *pipeline
	latencies := make([][]time.Duration, workers)
	var wg sync.WaitGroup

	// Fault injector (with -faults): a side connection corrupts live
	// objects while the load runs, so the server's background scrubber
	// has to heal corruption racing real traffic. INJECT alternates
	// scribbles and media-error poison by seed parity.
	var faultsInjected atomic.Uint64
	stopInject := make(chan struct{})
	var injectWG sync.WaitGroup
	if *faults > 0 {
		injectWG.Add(1)
		go func() {
			defer injectWG.Done()
			c, err := server.Dial(context.Background(), *addr)
			if err != nil {
				log.Printf("pglload: fault injector: %v", err)
				return
			}
			defer c.Close()
			// Capability probe before any corruption: INJECT with count 0
			// corrupts nothing but reports how many shards can inject at
			// all. When none can (log-structured backends have no in-place
			// bytes to scribble on), the heal gate can only ever time out —
			// fail the run now with a clear reason instead.
			probe, err := c.Inject(*seed, 0)
			if err != nil {
				log.Printf("pglload: inject probe: %v", err)
				return
			}
			if probe.CapableShards == 0 {
				log.Fatalf("pglload: -faults: none of the server's %d shards support fault injection — the bg_repairs gate cannot pass; point -faults at a pangolin-backed set",
					probe.TotalShards)
			}
			for i := 0; i < *faults; i++ {
				select {
				case <-stopInject:
					return
				case <-time.After(*faultEvery):
				}
				n, err := c.Inject(*seed+int64(i), 1)
				if err != nil {
					log.Printf("pglload: inject: %v", err)
					return
				}
				faultsInjected.Add(n.Injected)
			}
		}()
	}

	// runWorker is one closed-loop worker: it claims ops from the shared
	// budget and keeps exactly one request in flight on c until the
	// budget runs out. With -pipeline N, N workers share each connection
	// — the pipelined client interleaves their frames on one socket.
	// snapSem (one per connection) keeps the workers sharing that
	// connection within the server's MaxConnSnapshots concurrent
	// snapshots; without it a pipelined connection could race more
	// snapshot opens than the server allows per connection.
	runWorker := func(c *server.Client, slot int, snapSem chan struct{}) {
		rng := rand.New(rand.NewSource(*seed + int64(slot)))
		lats := make([]time.Duration, 0, int(*ops/uint64(workers)*2))
		// Keep whatever was measured even if this worker errors out
		// mid-run, so the report reflects the ops that did execute.
		defer func() { latencies[slot] = lats }()
		kbuf := make([]uint64, 0, *batch)
		vbuf := make([]uint64, 0, *batch)
		for {
			// Claim up to -batch ops from the shared budget; the
			// final claim may be short.
			end := opCount.Add(uint64(*batch))
			first := end - uint64(*batch) + 1
			if first > *ops {
				break
			}
			count := *batch
			if end > *ops {
				count = int(*ops - first + 1)
			}
			kbuf = kbuf[:0]
			for i := 0; i < count; i++ {
				kbuf = append(kbuf, rng.Uint64()%*keys)
			}
			// Each round trip is one op type, so a batch maps to one
			// MGET/MPUT/MDEL frame; the dice keep the requested mix
			// across rounds.
			dice := rng.Float64()
			t0 := time.Now()
			var err error
			switch {
			case dice < *scans:
				// One SCAN frame from a uniform lo, verified
				// client-side: pairs must ascend, respect the bounds,
				// and fit the limit — the wire-level proof of the
				// ordered-scan contract under live writers.
				scanOps.Add(uint64(count))
				lo := kbuf[0]
				var ps []server.Pair
				ps, _, _, err = c.Scan(lo, ^uint64(0), *scanLimit, 0)
				if err == nil {
					if len(ps) > *scanLimit {
						err = fmt.Errorf("scan returned %d pairs, limit %d", len(ps), *scanLimit)
					}
					for i, pr := range ps {
						if pr.K < lo || (i > 0 && pr.K <= ps[i-1].K) {
							err = fmt.Errorf("scan order/bounds violation at pair %d (key %d, lo %d)", i, pr.K, lo)
							break
						}
					}
					scanPairs.Add(uint64(len(ps)))
				}
			case dice < *scans+*snapScans:
				// One whole snapshot scan: open a pinned-generation
				// SNAPSCAN over a key-space window and page it to
				// completion. Every page must ascend, respect the window,
				// and — unlike a live scan — describe the single committed
				// state pinned at open, whatever the other workers commit
				// meanwhile. The terminal page releases the server-side
				// pins; -ops counts the whole scan as one op.
				snapOps.Add(uint64(count))
				lo := kbuf[0]
				hi := lo + (*keys >> 4)
				snapSem <- struct{}{}
				sc := c.SnapScan(lo, hi)
				var prev uint64
				firstPair := true
				for !sc.Done() {
					var ps []server.Pair
					ps, err = sc.Next(*scanLimit)
					if err != nil {
						break
					}
					for _, pr := range ps {
						if pr.K < lo || pr.K > hi || (!firstPair && pr.K <= prev) {
							err = fmt.Errorf("snapshot scan order/bounds violation (key %d, window [%d,%d])", pr.K, lo, hi)
							break
						}
						prev, firstPair = pr.K, false
					}
					snapPairs.Add(uint64(len(ps)))
					if err != nil {
						break
					}
				}
				<-snapSem
				if errors.Is(err, server.ErrSnapshotTooOld) {
					// The bounded version buffer evicted this scan's pin —
					// the typed outcome of the retention cap. The scan
					// aborted instead of serving weaker pages (the server
					// freed its slot), so count the eviction and move on.
					snapEvicted.Add(1)
					err = nil
				}
			case dice < *scans+*snapScans+*reads:
				gets.Add(uint64(count))
				if count == 1 {
					_, _, err = c.Get(kbuf[0])
				} else {
					_, _, err = c.MGet(kbuf)
				}
			case dice < *scans+*snapScans+*reads+*dels:
				delOps.Add(uint64(count))
				if count == 1 {
					_, err = c.Del(kbuf[0])
				} else {
					_, err = c.MDel(kbuf)
				}
			default:
				puts.Add(uint64(count))
				if count == 1 {
					err = c.Put(kbuf[0], rng.Uint64())
				} else {
					vbuf = vbuf[:0]
					for range kbuf {
						vbuf = append(vbuf, rng.Uint64())
					}
					err = c.MPut(kbuf, vbuf)
				}
			}
			lats = append(lats, time.Since(t0))
			if err != nil {
				errCount.Add(1)
				log.Printf("pglload: worker %d: %v", slot, err)
				return
			}
			opsDone.Add(uint64(count))
		}
	}

	gcBefore := readGC()
	start := time.Now()
	for id := 0; id < *clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := server.Dial(context.Background(), *addr,
				server.WithPipelineDepth(*pipeline))
			if err != nil {
				log.Printf("pglload: client %d: %v", id, err)
				errCount.Add(1)
				return
			}
			defer c.Close()
			snapSem := make(chan struct{}, server.MaxConnSnapshots)
			var cwg sync.WaitGroup
			for w := 0; w < *pipeline; w++ {
				cwg.Add(1)
				go func(slot int) {
					defer cwg.Done()
					runWorker(c, slot, snapSem)
				}(id**pipeline + w)
			}
			cwg.Wait()
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	gcAfter := readGC()
	close(stopInject)
	injectWG.Wait()

	all := make([]time.Duration, 0, *ops)
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)))
		if i >= len(all) {
			i = len(all) - 1
		}
		return float64(all[i]) / float64(time.Millisecond)
	}

	rep := report{
		Addr:              *addr,
		Clients:           *clients,
		Batch:             *batch,
		Pipeline:          *pipeline,
		Ops:               opsDone.Load(),
		Errors:            errCount.Load(),
		ElapsedSec:        elapsed.Seconds(),
		OpsPerSec:         float64(opsDone.Load()) / elapsed.Seconds(),
		ScanPairs:         scanPairs.Load(),
		ScanOpsPerSec:     float64(scanOps.Load()) / elapsed.Seconds(),
		SnapScanPairs:     snapPairs.Load(),
		SnapScanOpsPerSec: float64(snapOps.Load()) / elapsed.Seconds(),
		SnapEvictions:     snapEvicted.Load(),
		Latency: latencyMS{
			P50: pct(0.50), P95: pct(0.95), P99: pct(0.99), P999: pct(0.999),
			Max: pct(1),
		},
		Mix:             map[string]uint64{"get": gets.Load(), "put": puts.Load(), "del": delOps.Load(), "scan": scanOps.Load(), "snapscan": snapOps.Load()},
		AllocBytesPerOp: allocBytesPerOp(gcBefore, gcAfter, opsDone.Load()),
		GCPauseP99:      gcPauseP99(gcBefore, gcAfter),
		// Set before the post-run dial: a failed stats connection must
		// not misreport the injections that already happened as zero.
		FaultsInjected: faultsInjected.Load(),
	}

	// Fetch server-side stats, and optionally send the simulated crash.
	if c, err := server.Dial(context.Background(), *addr); err == nil {
		if *faults > 0 {
			// Post-load faults are the deterministic part of the gate:
			// with the traffic stopped, only the background scrubber can
			// heal them — a read repairing everything first can no
			// longer mask a dead scheduler. The gate requires bg_repairs
			// to INCREASE past its pre-injection value, so repairs the
			// scheduler made during the load (before wedging) cannot
			// satisfy it either.
			base := uint64(0)
			if st, err := c.Scrub(false); err == nil {
				base = st.Health.BgRepairs
			}
			for i := 0; i < 4; i++ {
				if n, err := c.Inject(*seed+int64(*faults)+int64(i), 1); err == nil {
					faultsInjected.Add(n.Injected)
				}
			}
			rep.FaultsInjected = faultsInjected.Load()
			deadline := time.Now().Add(*healWait)
			for {
				st, err := c.Scrub(false)
				if err == nil && st.Health.BgRepairs > base {
					rep.Healed = true
					break
				}
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(200 * time.Millisecond)
			}
		}
		if st, err := c.Stats(); err == nil {
			rep.Server = &st
			rep.Backend = st.Backends
			rep.VersionsRetained = st.VersionsHeld
			if st.Batches > 0 {
				rep.GroupBatchMean = float64(st.BatchedOps) / float64(st.Batches)
			}
		}
		if *crashAfter {
			if err := c.Crash(*seed); err != nil {
				log.Printf("pglload: crash request: %v", err)
			} else {
				rep.CrashSent = true
			}
		}
		c.Close()
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "pglload: %d errors\n", rep.Errors)
		os.Exit(1)
	}
	if *backend != "" && rep.Backend != *backend {
		fmt.Fprintf(os.Stderr, "pglload: server backends %q, want %q\n", rep.Backend, *backend)
		os.Exit(1)
	}
	if *faults > 0 && !rep.Healed {
		fmt.Fprintf(os.Stderr, "pglload: background scrubber never reported bg_repairs > 0 (injected %d faults)\n",
			rep.FaultsInjected)
		os.Exit(1)
	}
}

// runBackup implements -backup: one server.Backup (a SNAPSCAN loop on
// its own connection) written to a file of 16-byte little-endian (key,
// value) records, with a side connection polling STATS while the
// snapshot is open so the report can show the peak
// versions_retained and snapshot_pins the server reached — the
// version-buffer cost of holding one consistent image open while
// writers proceed.
func runBackup(addr, file string) {
	f, err := os.Create(file)
	if err != nil {
		log.Fatalf("pglload: backup: %v", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)

	peakVers, peakPins := 0, 0
	stopStats := make(chan struct{})
	var statsWG sync.WaitGroup
	if sc, serr := server.Dial(context.Background(), addr); serr == nil {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			defer sc.Close()
			for {
				select {
				case <-stopStats:
					return
				case <-time.After(100 * time.Millisecond):
				}
				if st, err := sc.Stats(); err == nil {
					if st.VersionsHeld > peakVers {
						peakVers = st.VersionsHeld
					}
					if st.SnapshotPins > peakPins {
						peakPins = st.SnapshotPins
					}
				}
			}
		}()
	}

	var pairs uint64
	var rec [16]byte
	var writeErr error
	start := time.Now()
	streamErr := server.Backup(context.Background(), addr, func(k, v uint64) bool {
		binary.LittleEndian.PutUint64(rec[:8], k)
		binary.LittleEndian.PutUint64(rec[8:], v)
		if _, writeErr = bw.Write(rec[:]); writeErr != nil {
			return false
		}
		pairs++
		return true
	})
	elapsed := time.Since(start)
	close(stopStats)
	statsWG.Wait()
	if streamErr == nil {
		streamErr = writeErr
	}
	if streamErr == nil {
		streamErr = bw.Flush()
	}
	if streamErr == nil {
		streamErr = f.Sync()
	}
	if cerr := f.Close(); streamErr == nil {
		streamErr = cerr
	}
	if streamErr != nil {
		log.Fatalf("pglload: backup: %v", streamErr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"backup_file":        file,
		"backup_pairs":       pairs,
		"elapsed_sec":        elapsed.Seconds(),
		"versions_retained":  peakVers,
		"snapshot_pins_peak": peakPins,
	}); err != nil {
		log.Fatal(err)
	}
}

// runRestore implements -restore: replay a -backup file through MPUT
// batches and SYNC, so the restored image is durable before `pglpool
// check` inspects the shard files — the final leg of the backup gate.
func runRestore(addr, file string) {
	f, err := os.Open(file)
	if err != nil {
		log.Fatalf("pglload: restore: %v", err)
	}
	defer f.Close()
	c, err := server.Dial(context.Background(), addr)
	if err != nil {
		log.Fatalf("pglload: restore: %v", err)
	}
	defer c.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	ks := make([]uint64, 0, server.MaxBatchOps)
	vs := make([]uint64, 0, server.MaxBatchOps)
	var restored uint64
	start := time.Now()
	flush := func() error {
		if len(ks) == 0 {
			return nil
		}
		if err := c.MPut(ks, vs); err != nil {
			return err
		}
		restored += uint64(len(ks))
		ks, vs = ks[:0], vs[:0]
		return nil
	}
	var rec [16]byte
	for {
		if _, rerr := io.ReadFull(br, rec[:]); rerr != nil {
			if rerr == io.EOF {
				break
			}
			// ErrUnexpectedEOF here means a truncated record — a corrupt
			// backup file must fail the restore, not silently shorten it.
			log.Fatalf("pglload: restore: reading %s: %v", file, rerr)
		}
		ks = append(ks, binary.LittleEndian.Uint64(rec[:8]))
		vs = append(vs, binary.LittleEndian.Uint64(rec[8:]))
		if len(ks) == server.MaxBatchOps {
			if err := flush(); err != nil {
				log.Fatalf("pglload: restore: %v", err)
			}
		}
	}
	if err := flush(); err != nil {
		log.Fatalf("pglload: restore: %v", err)
	}
	if err := c.Sync(); err != nil {
		log.Fatalf("pglload: restore: sync: %v", err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"restore_file":   file,
		"restored_pairs": restored,
		"elapsed_sec":    time.Since(start).Seconds(),
	}); err != nil {
		log.Fatal(err)
	}
}
