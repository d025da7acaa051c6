// Command pglload is a closed-loop load generator for pglserve, for
// manual runs and profiling: N client connections each keep exactly one
// request in flight until the target operation count is reached, then
// the run is summarized as one JSON object on stdout — ops/sec, latency
// percentiles, mix, and the server's STATS. The benchmark of record is
// the ledger (bench/ledger), not this program.
//
//	pglserve -dir /tmp/kvset -shards 4 &
//	pglload -addr 127.0.0.1:7499 -clients 32 -ops 100000
//
// The workload is keys uniform in [0, -keys), with a scan/get/del/put
// mix set by -scans, -reads and -dels (the remainder is puts). A scan op
// issues one SCAN frame of up to -scan-limit pairs from a uniform lo
// bound and verifies the response client-side — ascending,
// duplicate-free, bound-respecting — counting any violation as an error
// (-scans requires -batch 1). With -batch N each client sends
// MGET/MPUT/MDEL frames of N operations instead of single-op frames,
// exercising the server's group-commit path; reported ops and ops/sec
// still count individual operations, while the latency percentiles
// describe whole round trips. With -pipeline N each connection carries
// N closed-loop workers at once, so up to N requests ride one
// connection's in-flight window and the server folds the deeper shard
// queues into bigger group commits; the report's group_batch_mean
// (batched_ops/batches from STATS) shows the achieved depth. With
// -crash-after the run ends by sending CRASH, killing the server after
// it writes per-shard crash images; `pglpool check <dir>/shard-*.pgl`
// then verifies every recovered shard.
//
// The process exits nonzero when any operation failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"
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
	Addr       string            `json:"addr"`
	Clients    int               `json:"clients"`
	Batch      int               `json:"batch"`
	Pipeline   int               `json:"pipeline"`
	Ops        uint64            `json:"ops"`
	Errors     uint64            `json:"errors"`
	ElapsedSec float64           `json:"elapsed_sec"`
	OpsPerSec  float64           `json:"ops_per_sec"`
	ScanPairs  uint64            `json:"scan_pairs"`
	Latency    latencyMS         `json:"latency_ms"`
	Mix        map[string]uint64 `json:"mix"`
	// GroupBatchMean is the server's achieved group-commit depth,
	// batched_ops/batches from its STATS.
	GroupBatchMean float64       `json:"group_batch_mean,omitempty"`
	Server         *server.Stats `json:"server_stats,omitempty"`
	CrashSent      bool          `json:"crash_sent"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7499", "server address")
	clients := flag.Int("clients", 32, "concurrent client connections")
	ops := flag.Uint64("ops", 100_000, "total operations")
	keys := flag.Uint64("keys", 1<<16, "key space size")
	reads := flag.Float64("reads", 0.5, "fraction of GETs")
	dels := flag.Float64("dels", 0.1, "fraction of DELs")
	scans := flag.Float64("scans", 0, "fraction of SCANs (each one SCAN frame; requires -batch 1)")
	scanLimit := flag.Int("scan-limit", 64, "pairs requested per SCAN frame")
	seed := flag.Int64("seed", 1, "workload seed")
	batch := flag.Int("batch", 1, "operations per client frame (1 = single-op GET/PUT/DEL, >1 = MGET/MPUT/MDEL)")
	pipeline := flag.Int("pipeline", 1, "closed-loop workers per connection (each keeps one request in flight, so N workers pipeline N requests on one connection)")
	crashAfter := flag.Bool("crash-after", false, "send CRASH when done (server dies with crash images)")
	flag.Parse()
	switch {
	case *reads+*dels+*scans > 1:
		log.Fatal("pglload: -reads + -dels + -scans exceed 1")
	case *batch < 1 || *batch > server.MaxBatchOps:
		log.Fatalf("pglload: -batch must be in [1, %d]", server.MaxBatchOps)
	case *scans > 0 && *batch != 1:
		log.Fatal("pglload: -scans requires -batch 1 (a scan is its own frame)")
	case *scanLimit < 1 || *scanLimit > server.MaxScanPairs:
		log.Fatalf("pglload: -scan-limit must be in [1, %d]", server.MaxScanPairs)
	case *pipeline < 1 || *pipeline > server.MaxWindow:
		log.Fatalf("pglload: -pipeline must be in [1, %d]", server.MaxWindow)
	}

	var (
		opCount   atomic.Uint64 // ops claimed
		opsDone   atomic.Uint64 // ops completed
		errCount  atomic.Uint64
		gets      atomic.Uint64
		puts      atomic.Uint64
		delOps    atomic.Uint64
		scanOps   atomic.Uint64
		scanPairs atomic.Uint64
	)
	workers := *clients * *pipeline
	latencies := make([][]time.Duration, workers)

	// runWorker is one closed-loop worker: it claims ops from the shared
	// budget and keeps exactly one request in flight on c until the
	// budget runs out.
	runWorker := func(c *server.Client, slot int) {
		rng := rand.New(rand.NewSource(*seed + int64(slot)))
		lats := make([]time.Duration, 0, int(*ops/uint64(workers)*2))
		// Keep whatever was measured even if this worker errors out
		// mid-run, so the report reflects the ops that did execute.
		defer func() { latencies[slot] = lats }()
		kbuf := make([]uint64, 0, *batch)
		vbuf := make([]uint64, 0, *batch)
		for {
			// Claim up to -batch ops from the shared budget; the final
			// claim may be short.
			end := opCount.Add(uint64(*batch))
			first := end - uint64(*batch) + 1
			if first > *ops {
				return
			}
			count := *batch
			if end > *ops {
				count = int(*ops - first + 1)
			}
			kbuf = kbuf[:0]
			for range count {
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
				scanOps.Add(uint64(count))
				var n int
				n, err = checkedScan(c, kbuf[0], *scanLimit)
				scanPairs.Add(uint64(n))
			case dice < *scans+*reads:
				gets.Add(uint64(count))
				if count == 1 {
					_, _, err = c.Get(kbuf[0])
				} else {
					_, _, err = c.MGet(kbuf)
				}
			case dice < *scans+*reads+*dels:
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

	var wg sync.WaitGroup
	start := time.Now()
	for id := range *clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial(context.Background(), *addr, server.WithPipelineDepth(*pipeline))
			if err != nil {
				log.Printf("pglload: client %d: %v", id, err)
				errCount.Add(1)
				return
			}
			defer c.Close()
			var cwg sync.WaitGroup
			for w := range *pipeline {
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					runWorker(c, id**pipeline+w)
				}()
			}
			cwg.Wait()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	all := slices.Concat(latencies...)
	slices.Sort(all)
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[min(int(p*float64(len(all))), len(all)-1)]) / float64(time.Millisecond)
	}
	rep := report{
		Addr:       *addr,
		Clients:    *clients,
		Batch:      *batch,
		Pipeline:   *pipeline,
		Ops:        opsDone.Load(),
		Errors:     errCount.Load(),
		ElapsedSec: elapsed.Seconds(),
		OpsPerSec:  float64(opsDone.Load()) / elapsed.Seconds(),
		ScanPairs:  scanPairs.Load(),
		Latency: latencyMS{
			P50: pct(0.50), P95: pct(0.95), P99: pct(0.99), P999: pct(0.999), Max: pct(1),
		},
		Mix: map[string]uint64{"get": gets.Load(), "put": puts.Load(), "del": delOps.Load(), "scan": scanOps.Load()},
	}

	// Fetch server-side stats, and optionally send the simulated crash.
	if c, err := server.Dial(context.Background(), *addr); err == nil {
		if st, err := c.Stats(); err == nil {
			rep.Server = &st
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
}

// checkedScan issues one SCAN frame from lo and verifies the ordered-scan
// contract client-side: at most limit pairs, ascending, none below lo.
// It returns how many pairs the frame carried.
func checkedScan(c *server.Client, lo uint64, limit int) (int, error) {
	ps, _, _, err := c.Scan(lo, ^uint64(0), limit, 0)
	if err != nil {
		return 0, err
	}
	if len(ps) > limit {
		return len(ps), fmt.Errorf("scan returned %d pairs, limit %d", len(ps), limit)
	}
	for i, pr := range ps {
		if pr.K < lo || (i > 0 && pr.K <= ps[i-1].K) {
			return len(ps), fmt.Errorf("scan order/bounds violation at pair %d (key %d, lo %d)", i, pr.K, lo)
		}
	}
	return len(ps), nil
}
