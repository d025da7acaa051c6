#!/usr/bin/env bash
# loadtest.sh — the serve → load → crash → check acceptance loop.
#
# Boots pglserve with $SHARDS shards and drives it through ten phases
# (restarting the server — same data directory, clean sync + reopen —
# where a server-side switch changes):
#
#   0. warmup:            $OPS unmeasured ops populate the store, so the
#                         measured phases all run against a store of
#                         comparable size
#   1. per-op baseline:   $CLIENTS closed-loop clients, $OPS single-op frames
#   2. batch:             the same load sent as MGET/MPUT/MDEL of $BATCH ops,
#                         exercising the shard workers' group commit
#   3. read-heavy serial: 90% GET mix against a server restarted with
#                         -serial-reads (every read takes the worker hop) —
#                         the baseline for the read fast path
#   4. read-heavy fast:   the same mix against a normally-started server;
#                         GETs run checksum-verified on the connection
#                         handlers' goroutines behind the per-shard reader
#                         gate. The report's server_stats must show
#                         fast_gets > 0 (the fast path actually engaged).
#   5. scan mix:          79% GET / 10% SCAN / 1% SNAPSCAN / 10% PUT
#                         against the fast server; pglload verifies
#                         every SCAN response client-side (ascending,
#                         duplicate-free, bound-respecting) and pages
#                         every SNAPSCAN to completion (same checks,
#                         plus the pinned-window bound) while the PUTs
#                         keep commits racing the scan chunks. Gated on
#                         zero errors, on the server's fast_scans > 0
#                         (fast-path scans actually engaged), and on
#                         snap_scan_pairs > 0 (snapshot scans actually
#                         returned pinned pages); scan_ops_per_sec and
#                         snapshot_scan_ops_per_sec land in compare.json
#                         as trajectories, not gates
#   6. corruption healing: the server restarts with -scrub-interval, and
#                         the scan mix reruns while pglload INJECTs
#                         $FAULTS live faults (scribbles + media-error
#                         poison on random live objects) plus a few after
#                         the load stops. Gated on 0 client errors, on
#                         the background scrubber reporting bg_repairs >
#                         0 (pglload itself exits nonzero otherwise), and
#                         the phase's p99 vs phase 5's identical mix
#                         lands in compare.json (recorded, not
#                         ratio-gated: single-core CI container)
#   7. pipeline sweep:    the mixed single-op workload twice over the v2
#                         pipelined wire protocol — $PIPE_CLIENTS
#                         connections at in-flight depth 1, then depth
#                         $PIPE_DEPTH — against a freshly restarted
#                         server each time, so batches/batched_ops
#                         counters isolate one run. Gated on 0 errors in
#                         both runs and on the deep run's achieved
#                         group-commit size (batched_ops/batches)
#                         strictly exceeding the depth-1 run's: the
#                         pipelining → deeper worker queues → bigger
#                         group commits mechanism, proven from server
#                         counters. pipeline_speedup (deep vs depth-1
#                         ops/sec) lands in compare.json as a recorded
#                         trajectory, not a gate (single-core CI)
#   8. backend A/B:       the same write-heavy mix against two FRESH data
#                         directories — one all-pangolin, one all-logstore
#                         (small segments + the scrubber tick driving
#                         compaction) — each run asserting via pglload
#                         -backend that it measured the engine it meant
#                         to. backend_speedup (pangolin vs logstore
#                         ops/sec) and the log engine's segment/compaction
#                         counters land in compare.json as a recorded
#                         trajectory, not a gate; both runs must be
#                         error-free
#   9. backup/restore:    a Backup (SNAPSCAN loop) runs while a background
#                         batch load keeps committing, written to a
#                         file, and replayed (-restore) into a FRESH
#                         data directory; after the run every restored
#                         shard snapshot must pass `pglpool check` and
#                         the restored pair count must equal the backup
#                         pair count — ROADMAP item 5's acceptance: a
#                         backup under sustained writes restores to a
#                         generation-consistent image. The backup
#                         report's peak versions_retained lands in
#                         compare.json (the version-buffer cost of
#                         holding the image open)
#  10. crash mid-batch:   a background batch load is still running when the
#                         CRASH frame lands — with the scrubber still
#                         interleaving steps — so shards die with batch
#                         transactions in flight; every shard snapshot must
#                         then pass `pglpool check`
#
# compare.json records per-op vs batch ops/sec (speedup), serial vs
# fast read ops/sec (read_speedup), the scan phase's scan_ops_per_sec
# and snapshot_scan_ops_per_sec (with snap_evictions — scans whose pin
# the bounded version buffer evicted, the typed cap outcome), the
# backup phase's pair count and peak versions_retained, the corruption
# phase's scrub health (bg_repairs, scrub_steps, scrub_backoffs,
# scrub_p99_ratio), the pipeline sweep's pipeline_speedup with both
# group-commit means, the deep-pipeline run's client-side allocation
# pressure (alloc_bytes_per_op, gc_pause_p99 — recorded, not gated),
# and the logstore run's quarantined_segments; CI uploads it with the
# phase reports and the backup artifacts.
# MIN_SPEEDUP / MIN_READ_SPEEDUP fail the run when a ratio falls below
# the bound (default 1.0 — the optimized path must never be slower; the
# ISSUE-3 acceptance target for reads is 2.0, which holds on dedicated
# hardware but is not gated in shared CI, and scan throughput and scrub
# p99 are likewise recorded but not ratio-gated on the single-core CI
# container).
set -euo pipefail

SHARDS=${SHARDS:-4}
CLIENTS=${CLIENTS:-32}
OPS=${OPS:-100000}
BATCH=${BATCH:-16}
READ_FRAC=${READ_FRAC:-0.9}
READ_CLIENTS=${READ_CLIENTS:-$CLIENTS}
MIN_SPEEDUP=${MIN_SPEEDUP:-1.0}
MIN_READ_SPEEDUP=${MIN_READ_SPEEDUP:-1.0}
FAULTS=${FAULTS:-40}
SCRUB_INTERVAL=${SCRUB_INTERVAL:-2ms}
PIPE_CLIENTS=${PIPE_CLIENTS:-8}
PIPE_DEPTH=${PIPE_DEPTH:-64}
WORKDIR=${WORKDIR:-$(mktemp -d /tmp/pgl-loadtest.XXXXXX)}

cd "$(dirname "$0")/.."
mkdir -p bin
go build -o bin ./cmd/...

echo "# loadtest: $SHARDS shards, $CLIENTS clients, $OPS ops, batch $BATCH, reads $READ_FRAC (workdir $WORKDIR)" >&2

SERVE_PID=""
ADDR=""
SERVE_DIR="$WORKDIR/kvset"

start_server() { # start_server <logname> [extra pglserve flags...]; data dir from $SERVE_DIR
    local name=$1; shift
    : >"$WORKDIR/$name.json"
    ./bin/pglserve -dir "$SERVE_DIR" -shards "$SHARDS" -addr 127.0.0.1:0 "$@" \
        >"$WORKDIR/$name.json" 2>"$WORKDIR/$name.log" &
    SERVE_PID=$!
    for _ in $(seq 100); do
        [ -s "$WORKDIR/$name.json" ] && break
        sleep 0.1
    done
    ADDR=$(sed -n 's/.*"addr":"\([^"]*\)".*/\1/p' "$WORKDIR/$name.json")
    if [ -z "$ADDR" ]; then
        echo "loadtest: server did not start ($name):" >&2
        cat "$WORKDIR/$name.log" >&2
        exit 1
    fi
}

stop_server() { # clean shutdown: sync every shard, then reopen next time
    kill -TERM "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
}

trap '[ -n "$SERVE_PID" ] && kill $SERVE_PID 2>/dev/null || true' EXIT

start_server serve

echo "# phase 0: warmup (unmeasured)" >&2
./bin/pglload -addr "$ADDR" -clients "$CLIENTS" -ops "$OPS" -seed 9 -batch "$BATCH" \
    >"$WORKDIR/load-warmup.json"

echo "# phase 1: per-op baseline" >&2
./bin/pglload -addr "$ADDR" -clients "$CLIENTS" -ops "$OPS" -seed 1 \
    | tee "$WORKDIR/load-perop.json"

echo "# phase 2: batch $BATCH" >&2
./bin/pglload -addr "$ADDR" -clients "$CLIENTS" -ops "$OPS" -seed 2 -batch "$BATCH" \
    | tee "$WORKDIR/load-batch.json"

echo "# phase 3: read-heavy ($READ_FRAC GET), worker-serialized reads" >&2
stop_server
start_server serve-serial -serial-reads
./bin/pglload -addr "$ADDR" -clients "$READ_CLIENTS" -ops "$OPS" -seed 5 \
    -reads "$READ_FRAC" -dels 0.02 \
    | tee "$WORKDIR/load-read-serial.json"

echo "# phase 4: read-heavy ($READ_FRAC GET), concurrent fast path" >&2
stop_server
start_server serve-fast
./bin/pglload -addr "$ADDR" -clients "$READ_CLIENTS" -ops "$OPS" -seed 5 \
    -reads "$READ_FRAC" -dels 0.02 \
    | tee "$WORKDIR/load-read-fast.json"

echo "# phase 5: scan mix (79% GET / 10% SCAN / 1% SNAPSCAN / 10% PUT), fast path" >&2
./bin/pglload -addr "$ADDR" -clients "$READ_CLIENTS" -ops "$OPS" -seed 6 \
    -reads 0.79 -scans 0.1 -snapscans 0.01 -dels 0 \
    | tee "$WORKDIR/load-scan.json"

echo "# phase 6: corruption healing ($FAULTS live faults, scrubber every $SCRUB_INTERVAL)" >&2
stop_server
start_server serve-scrub -scrub-interval "$SCRUB_INTERVAL"
# Same mix as phase 5, so scrub_p99_ratio compares like with like.
# pglload exits nonzero unless the background scrubber reports
# bg_repairs > 0 after the injections — the corruption-healing gate.
./bin/pglload -addr "$ADDR" -clients "$READ_CLIENTS" -ops "$OPS" -seed 7 \
    -reads 0.79 -scans 0.1 -snapscans 0.01 -dels 0 -faults "$FAULTS" \
    | tee "$WORKDIR/load-scrub.json"

echo "# phase 7: pipeline sweep (depth 1 vs $PIPE_DEPTH, $PIPE_CLIENTS connections)" >&2
# Fresh server per run: batches/batched_ops then count one run only, so
# the group-commit depth comparison below is clean.
stop_server
start_server serve-pipe1
./bin/pglload -addr "$ADDR" -clients "$PIPE_CLIENTS" -ops "$OPS" -seed 8 -pipeline 1 \
    | tee "$WORKDIR/load-pipe1.json"
stop_server
start_server serve-pipe-deep
./bin/pglload -addr "$ADDR" -clients "$PIPE_CLIENTS" -ops "$OPS" -seed 8 -pipeline "$PIPE_DEPTH" \
    | tee "$WORKDIR/load-pipe-deep.json"

echo "# phase 8: backend A/B (write-heavy, pangolin vs logstore, fresh dirs)" >&2
# Fresh directories so neither engine inherits the other's working set;
# a small key space makes the mix overwrite-heavy, which is what gives
# the log engine dead records to compact (scrubber ticks double as the
# logstore's compaction driver). pglload -backend makes each run fail
# loudly if it measured the wrong engine.
stop_server
SERVE_DIR="$WORKDIR/kvset-ab-pangolin"
start_server serve-ab-pangolin -scrub-interval "$SCRUB_INTERVAL"
./bin/pglload -addr "$ADDR" -clients "$CLIENTS" -ops "$OPS" -seed 11 -keys 4096 \
    -reads 0.2 -dels 0.1 -backend pangolin \
    | tee "$WORKDIR/load-ab-pangolin.json"
stop_server
SERVE_DIR="$WORKDIR/kvset-ab-logstore"
start_server serve-ab-logstore -backend logstore -log-segment-bytes 65536 -scrub-interval "$SCRUB_INTERVAL"
./bin/pglload -addr "$ADDR" -clients "$CLIENTS" -ops "$OPS" -seed 11 -keys 4096 \
    -reads 0.2 -dels 0.1 -backend logstore \
    | tee "$WORKDIR/load-ab-logstore.json"
SERVE_DIR="$WORKDIR/kvset"

echo "# phase 9: backup under sustained writes, restore into a fresh set" >&2
stop_server
start_server serve-backup
# The background load keeps group commits landing while the Backup
# stream pins its snapshot and pages the whole keyspace; its client
# errors when killed are expected and not gated.
./bin/pglload -addr "$ADDR" -clients "$CLIENTS" -ops 10000000 -seed 13 -batch "$BATCH" \
    >"$WORKDIR/load-backup-bg.json" 2>"$WORKDIR/load-backup-bg.log" &
BK_PID=$!
sleep 1
./bin/pglload -addr "$ADDR" -backup "$WORKDIR/backup.bin" | tee "$WORKDIR/backup.json"
kill "$BK_PID" 2>/dev/null || true
wait "$BK_PID" 2>/dev/null || true
stop_server
# Replay the stream into a FRESH directory; the clean stop afterwards
# syncs shard snapshots for the pglpool check below.
SERVE_DIR="$WORKDIR/kvset-restore"
start_server serve-restore
./bin/pglload -addr "$ADDR" -restore "$WORKDIR/backup.bin" | tee "$WORKDIR/restore.json"
stop_server
SERVE_DIR="$WORKDIR/kvset"

echo "# phase 10: crash while a batch load is in flight (scrubber still on)" >&2
stop_server
start_server serve-crash -scrub-interval "$SCRUB_INTERVAL"
# The background load runs until the server dies under it; its client
# errors are expected (the crash kills their connections mid-frame).
./bin/pglload -addr "$ADDR" -clients "$CLIENTS" -ops 10000000 -seed 3 -batch "$BATCH" \
    >"$WORKDIR/load-crash-bg.json" 2>"$WORKDIR/load-crash-bg.log" &
BG_PID=$!
sleep 1
./bin/pglload -addr "$ADDR" -clients 4 -ops 2000 -seed 4 -batch "$BATCH" -crash-after \
    >"$WORKDIR/load-crash.json" 2>&1 || true
wait "$BG_PID" 2>/dev/null || true

# The crash request kills the server; wait for it to die.
wait "$SERVE_PID" || true
SERVE_PID=""
trap - EXIT

status=0

# Every shard must reopen and pass scrub after the mid-batch crash.
for f in "$WORKDIR"/kvset/shard-*.pgl; do
    if ! ./bin/pglpool check "$f"; then
        echo "loadtest: FAILED pglpool check: $f" >&2
        status=1
    fi
done

# The backup taken under sustained writes must restore completely
# (every streamed pair replayed) into shards that pass pglpool check —
# the generation-consistent-image acceptance of ROADMAP item 5.
BACKUP_PAIRS=$(sed -n 's/.*"backup_pairs": \([0-9]*\),*.*/\1/p' "$WORKDIR/backup.json" | head -n 1)
RESTORED_PAIRS=$(sed -n 's/.*"restored_pairs": \([0-9]*\),*.*/\1/p' "$WORKDIR/restore.json" | head -n 1)
VERSIONS_RETAINED=$(sed -n 's/.*"versions_retained": \([0-9]*\),*.*/\1/p' "$WORKDIR/backup.json" | head -n 1)
if [ "${BACKUP_PAIRS:-0}" = "0" ]; then
    echo "loadtest: FAILED backup streamed no pairs" >&2
    status=1
elif [ "${BACKUP_PAIRS}" != "${RESTORED_PAIRS:-}" ]; then
    echo "loadtest: FAILED restore replayed ${RESTORED_PAIRS:-0} of $BACKUP_PAIRS backup pairs" >&2
    status=1
fi
RESTORE_CHECKED=0
for f in "$WORKDIR"/kvset-restore/shard-*.pgl; do
    [ -e "$f" ] || continue
    if ! ./bin/pglpool check "$f"; then
        echo "loadtest: FAILED pglpool check (restored from backup): $f" >&2
        status=1
    fi
    RESTORE_CHECKED=$((RESTORE_CHECKED + 1))
done
if [ "$RESTORE_CHECKED" = 0 ]; then
    echo "loadtest: FAILED no restored shard snapshots to check" >&2
    status=1
fi

# Every measured phase must be error-free (scan errors include pglload's
# client-side order/bounds verification of every SCAN response; scrub
# errors would be corruption a client op observed).
for phase in perop batch read-serial read-fast scan scrub pipe1 pipe-deep ab-pangolin ab-logstore; do
    errors=$(sed -n 's/.*"errors": \([0-9]*\),.*/\1/p' "$WORKDIR/load-$phase.json" | head -n 1)
    if [ "${errors:-1}" != "0" ]; then
        echo "loadtest: FAILED with $errors client errors in $phase phase" >&2
        status=1
    fi
done

# The fast phase must actually have used the fast path, and the serial
# phase must not have.
FAST_GETS=$(sed -n 's/.*"fast_gets": \([0-9]*\),.*/\1/p' "$WORKDIR/load-read-fast.json" | head -n 1)
SERIAL_FAST_GETS=$(sed -n 's/.*"fast_gets": \([0-9]*\),.*/\1/p' "$WORKDIR/load-read-serial.json" | head -n 1)
if [ "${FAST_GETS:-0}" = "0" ]; then
    echo "loadtest: FAILED read fast path never engaged (fast_gets=0)" >&2
    status=1
fi
if [ "${SERIAL_FAST_GETS:-0}" != "0" ]; then
    echo "loadtest: FAILED -serial-reads server served fast reads (fast_gets=$SERIAL_FAST_GETS)" >&2
    status=1
fi

# The scan phase must have engaged the scan fast path (gate: scans
# complete with 0 errors — checked above — and fast-path scans engage).
FAST_SCANS=$(sed -n 's/.*"fast_scans": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scan.json" | head -n 1)
if [ "${FAST_SCANS:-0}" = "0" ]; then
    echo "loadtest: FAILED scan fast path never engaged (fast_scans=0)" >&2
    status=1
fi

# The snapshot scans in the same mix must have returned pinned pages
# (snap_scan_pairs > 0; their per-page order/bounds checks fold into the
# phase's 0-errors gate above). Throughput is recorded, not gated.
SNAPOPS=$(sed -n 's/.*"snapshot_scan_ops_per_sec": \([0-9.]*\),*.*/\1/p' "$WORKDIR/load-scan.json" | head -n 1)
SNAPPAIRS=$(sed -n 's/.*"snap_scan_pairs": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scan.json" | head -n 1)
SNAPEVICT=$(sed -n 's/.*"snap_evictions": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scan.json" | head -n 1)
if [ "${SNAPPAIRS:-0}" = "0" ]; then
    echo "loadtest: FAILED snapshot scans returned no pairs (snap_scan_pairs=0)" >&2
    status=1
fi

# The corruption phase must show the background scrubber healing live
# injected faults (bg_repairs > 0; pglload already gated on this and on
# 0 client errors, checked again here from the server's own stats).
BG_REPAIRS=$(sed -n 's/.*"bg_repairs": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scrub.json" | head -n 1)
SCRUB_STEPS=$(sed -n 's/.*"scrub_steps": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scrub.json" | head -n 1)
SCRUB_BACKOFFS=$(sed -n 's/.*"scrub_backoffs": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scrub.json" | head -n 1)
FAULTS_INJECTED=$(sed -n 's/.*"faults_injected": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scrub.json" | head -n 1)
if [ "${BG_REPAIRS:-0}" = "0" ]; then
    echo "loadtest: FAILED background scrubber repaired nothing (bg_repairs=0, injected ${FAULTS_INJECTED:-?})" >&2
    status=1
fi

# The deep pipeline run must achieve strictly bigger group commits than
# the depth-1 run — the wire-level proof that pipelining feeds the shard
# workers' group commit (each server was fresh, so the counters are per
# run). group_batch_mean is omitted from a report when no group commits
# happened at all, so default it to 0.
GBM1=$(sed -n 's/.*"group_batch_mean": \([0-9.]*\),*.*/\1/p' "$WORKDIR/load-pipe1.json" | head -n 1)
GBMDEEP=$(sed -n 's/.*"group_batch_mean": \([0-9.]*\),*.*/\1/p' "$WORKDIR/load-pipe-deep.json" | head -n 1)
if ! awk -v a="${GBM1:-0}" -v b="${GBMDEEP:-0}" 'BEGIN { exit !(b > a) }'; then
    echo "loadtest: FAILED pipelining did not deepen group commits (depth 1 mean ${GBM1:-0}, depth $PIPE_DEPTH mean ${GBMDEEP:-0})" >&2
    status=1
fi

# Record the per-op vs batch, serial vs fast read, scan, scrub,
# pipeline, and backend A/B trajectories (backend_speedup is pangolin
# over logstore ops/sec on the identical write-heavy mix — recorded,
# not gated, like the other single-core-container ratios).
PEROP=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-perop.json" | head -n 1)
BATCHOPS=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-batch.json" | head -n 1)
READSERIAL=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-read-serial.json" | head -n 1)
READFAST=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-read-fast.json" | head -n 1)
SCANOPS=$(sed -n 's/.*"scan_ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-scan.json" | head -n 1)
SCANPAIRS=$(sed -n 's/.*"scan_pairs": \([0-9]*\),.*/\1/p' "$WORKDIR/load-scan.json" | head -n 1)
# p99 of the scan mix with and without the scrubber (identical mixes, so
# the ratio is the background scrubber's client-visible commit/read
# latency cost; recorded, not gated, on the single-core container).
SCANP99=$(sed -n 's/.*"p99": \([0-9.]*\),.*/\1/p' "$WORKDIR/load-scan.json" | head -n 1)
SCRUBP99=$(sed -n 's/.*"p99": \([0-9.]*\),.*/\1/p' "$WORKDIR/load-scrub.json" | head -n 1)
PIPE1OPS=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-pipe1.json" | head -n 1)
PIPEDEEPOPS=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-pipe-deep.json" | head -n 1)
ABPANGOLIN=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-ab-pangolin.json" | head -n 1)
ABLOGSTORE=$(sed -n 's/.*"ops_per_sec": \([0-9.]*\).*/\1/p' "$WORKDIR/load-ab-logstore.json" | head -n 1)
LOGSEGS=$(sed -n 's/.*"segments": \([0-9]*\),.*/\1/p' "$WORKDIR/load-ab-logstore.json" | head -n 1)
LOGCOMPACTIONS=$(sed -n 's/.*"compactions": \([0-9]*\),.*/\1/p' "$WORKDIR/load-ab-logstore.json" | head -n 1)
# Segments a corrupt-record merge abort parked: data held back from
# compaction — an operator signal, recorded so a regression shows up.
LOGQUAR=$(sed -n 's/.*"quarantined_segments": \([0-9]*\),*.*/\1/p' "$WORKDIR/load-ab-logstore.json" | head -n 1)
# Client-process allocation pressure on the deep-pipeline run, from
# pglload's runtime/metrics bracket (alloc_bytes_per_op, gc_pause_p99 in
# seconds). Recorded, not gated: single-core container numbers are for
# trend-watching across PRs, like the other ratios.
ALLOCPEROP=$(sed -n 's/.*"alloc_bytes_per_op": \([0-9.e+-]*\),*.*/\1/p' "$WORKDIR/load-pipe-deep.json" | head -n 1)
GCPAUSEP99=$(sed -n 's/.*"gc_pause_p99": \([0-9.e+-]*\),*.*/\1/p' "$WORKDIR/load-pipe-deep.json" | head -n 1)
awk -v p="${PEROP:-0}" -v b="${BATCHOPS:-0}" -v batch="$BATCH" -v min="$MIN_SPEEDUP" \
    -v rs="${READSERIAL:-0}" -v rf="${READFAST:-0}" -v rfrac="$READ_FRAC" -v rmin="$MIN_READ_SPEEDUP" \
    -v fg="${FAST_GETS:-0}" -v so="${SCANOPS:-0}" -v sp="${SCANPAIRS:-0}" -v fs="${FAST_SCANS:-0}" \
    -v br="${BG_REPAIRS:-0}" -v ss="${SCRUB_STEPS:-0}" -v sb="${SCRUB_BACKOFFS:-0}" \
    -v fi="${FAULTS_INJECTED:-0}" -v sp99="${SCANP99:-0}" -v scp99="${SCRUBP99:-0}" \
    -v p1="${PIPE1OPS:-0}" -v pd="${PIPEDEEPOPS:-0}" -v pdepth="$PIPE_DEPTH" \
    -v g1="${GBM1:-0}" -v gd="${GBMDEEP:-0}" \
    -v abp="${ABPANGOLIN:-0}" -v abl="${ABLOGSTORE:-0}" \
    -v lsegs="${LOGSEGS:-0}" -v lcomp="${LOGCOMPACTIONS:-0}" \
    -v sno="${SNAPOPS:-0}" -v snp="${SNAPPAIRS:-0}" -v sne="${SNAPEVICT:-0}" \
    -v bpr="${BACKUP_PAIRS:-0}" -v vr="${VERSIONS_RETAINED:-0}" -v lq="${LOGQUAR:-0}" \
    -v abo="${ALLOCPEROP:-0}" -v gcp="${GCPAUSEP99:-0}" 'BEGIN {
    s = (p > 0) ? b / p : 0
    r = (rs > 0) ? rf / rs : 0
    p99r = (sp99 > 0) ? scp99 / sp99 : 0
    ps = (p1 > 0) ? pd / p1 : 0
    bs = (abl > 0) ? abp / abl : 0
    printf "{\n"
    printf "  \"per_op_ops_per_sec\": %.1f,\n  \"batch_ops_per_sec\": %.1f,\n  \"batch\": %d,\n  \"speedup\": %.2f,\n  \"min_speedup\": %.2f,\n", p, b, batch, s, min
    printf "  \"read_serial_ops_per_sec\": %.1f,\n  \"read_fast_ops_per_sec\": %.1f,\n  \"read_fraction\": %s,\n  \"fast_gets\": %d,\n  \"read_speedup\": %.2f,\n  \"min_read_speedup\": %.2f,\n", rs, rf, rfrac, fg, r, rmin
    printf "  \"scan_ops_per_sec\": %.1f,\n  \"scan_pairs\": %d,\n  \"fast_scans\": %d,\n", so, sp, fs
    printf "  \"snapshot_scan_ops_per_sec\": %.1f,\n  \"snap_scan_pairs\": %d,\n  \"snap_evictions\": %d,\n", sno, snp, sne
    printf "  \"backup_pairs\": %d,\n  \"versions_retained\": %d,\n", bpr, vr
    printf "  \"faults_injected\": %d,\n  \"bg_repairs\": %d,\n  \"scrub_steps\": %d,\n  \"scrub_backoffs\": %d,\n  \"scrub_p99_ratio\": %.2f,\n", fi, br, ss, sb, p99r
    printf "  \"pipe1_ops_per_sec\": %.1f,\n  \"pipe_deep_ops_per_sec\": %.1f,\n  \"pipe_depth\": %d,\n  \"pipeline_speedup\": %.2f,\n", p1, pd, pdepth, ps
    printf "  \"alloc_bytes_per_op\": %.1f,\n  \"gc_pause_p99\": %.6f,\n", abo, gcp
    printf "  \"group_batch_mean_depth1\": %.2f,\n  \"group_batch_mean_deep\": %.2f,\n", g1, gd
    printf "  \"backend_pangolin_ops_per_sec\": %.1f,\n  \"backend_logstore_ops_per_sec\": %.1f,\n  \"backend_speedup\": %.2f,\n", abp, abl, bs
    printf "  \"logstore_segments\": %d,\n  \"logstore_compactions\": %d,\n  \"logstore_quarantined\": %d\n", lsegs, lcomp, lq
    printf "}\n"
    exit !(s >= min && r >= rmin)
}' | tee "$WORKDIR/compare.json" || {
    echo "loadtest: FAILED speedup below bound (batch >= $MIN_SPEEDUP, read >= $MIN_READ_SPEEDUP)" >&2
    status=1
}

[ "$status" = 0 ] && echo "# loadtest: OK" >&2
exit $status
