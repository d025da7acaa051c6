// Command pglserve serves a sharded Pangolin key-value store over TCP
// (see server/doc.go for the protocol and design).
//
//	pglserve -dir /tmp/kvset -shards 4 -structure hashmap -addr :7499
//
// If dir is missing or holds no shard files the set is created with
// -shards shards of -structure; otherwise the existing set is opened
// (crash-recovering every shard) and -shards / -structure are ignored. A
// directory whose shard files do not form a set (a shard missing, or one
// in both backend forms) is an error, never a reason to create over it.
// GETs are served on the concurrent verified-read fast path
// (checksum-verified lookups from the connection handlers' goroutines,
// no worker hop); STATS reports fast_gets/fast_fallbacks. With
// -scrub-interval the background maintenance scheduler runs: every
// interval one shard executes one bounded scrub step (skipped while the
// shard is busy — traffic always wins), so injected or latent corruption
// is found and repaired while the server keeps serving; STATS and the
// SCRUB op report scrub_steps/bg_repairs/scrub_backoffs/
// last_full_pass_unix. On SIGINT/SIGTERM the server syncs every shard
// snapshot and exits cleanly. A CRASH request instead makes the process
// die abruptly after writing per-shard crash images — the hook pglload
// -crash-after and the benchmark ledger's oracle use to exercise
// recovery.
//
// Startup prints one JSON line to stdout, e.g.
//
//	{"addr":"127.0.0.1:7499","shards":4,"structure":"hashmap","recovered":false}
//
// so scripts can discover the bound port when -addr uses port 0.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/server"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7499", "listen address (port 0 picks a free port)")
	dir := flag.String("dir", "", "shard snapshot directory (required)")
	shards := flag.Int("shards", 4, "shard count when creating a new set")
	structure := flag.String("structure", "hashmap", fmt.Sprintf("kv structure when creating: %v", registry.Names()))
	backend := flag.String("backend", "",
		"per-shard storage backend when creating: pangolin (default), logstore, or a comma list cycled across shards (\"pangolin,logstore\" alternates); opening an existing set rediscovers each shard's backend from disk")
	logSegBytes := flag.Int64("log-segment-bytes", 0,
		"logstore shards' segment rotation threshold in bytes when creating; 0 selects the engine default (small values force compaction traffic, for tests and A/B runs)")
	mode := flag.String("mode", "pangolin-mlpc",
		fmt.Sprintf("pool operation mode: %v (the unprotected pmemobj baseline is rejected)", shard.ModeNames()))
	zones := flag.Uint64("zones", 8, "zones per shard pool when creating (capacity)")
	scrubInterval := flag.Duration("scrub-interval", 0,
		"background maintenance cadence: every interval one shard (round-robin) runs one bounded scrub step, skipped while that shard is busy; 0 disables (scrub then runs only on SCRUB requests)")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "pglserve: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	geo := pangolin.DefaultGeometry()
	geo.NumZones = *zones
	// The mode name goes through shard.Options.Mode, the explicit
	// channel: shard rejects "pmemobj" with a typed error (and unknown
	// names with a naming error) instead of silently serving another
	// mode.
	opts := shard.Options{
		Structure:       *structure,
		Backend:         *backend,
		Mode:            *mode,
		Pangolin:        pangolin.Config{Geometry: geo},
		LogSegmentBytes: *logSegBytes,
		ScrubInterval:   *scrubInterval,
	}

	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux
		// at import; this side server exposes nothing else. See the
		// "Profiling a hot server" recipe in the README.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pglserve: pprof server: %v", err)
			}
		}()
	}

	// Only a directory with no shard files in either on-disk form (pool
	// file or logstore directory) is created; any other discovery failure
	// is a damaged set and stops the server before it writes anything.
	var set *shard.Set
	_, err := shard.DiscoverBackends(*dir)
	recovered := err == nil
	switch {
	case recovered:
		set, err = shard.Open(*dir, opts)
	case errors.Is(err, shard.ErrNoShards):
		set, err = shard.Create(*dir, *shards, opts)
	}
	if err != nil {
		log.Fatalf("pglserve: %v", err)
	}

	srv := server.New(set)
	if err := srv.Listen(*addr); err != nil {
		log.Fatalf("pglserve: %v", err)
	}
	json.NewEncoder(os.Stdout).Encode(map[string]any{
		"addr":           srv.Addr().String(),
		"shards":         set.Len(),
		"structure":      set.Structure(),
		"backends":       set.Stats().Backends,
		"recovered":      recovered,
		"scrub_interval": scrubInterval.String(),
	})

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("pglserve: %v: syncing %d shards", sig, set.Len())
		srv.Shutdown()
		if err := set.Close(); err != nil {
			log.Fatalf("pglserve: sync on shutdown: %v", err)
		}
	case <-srv.Crashed():
		// Simulated machine death: crash images are on disk; exit
		// without syncing so they stand as the pools' last state.
		log.Printf("pglserve: simulated crash, dying without sync")
		srv.Shutdown()
		set.Abandon()
	case err := <-serveDone:
		set.Abandon()
		log.Fatalf("pglserve: serve: %v", err)
	}
}
