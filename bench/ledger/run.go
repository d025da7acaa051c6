package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/server"
)

// conditions are recorded in every report: numbers from different
// conditions do not compare.
type conditions struct {
	NProc            int    `json:"nproc"`
	GOMAXPROCS       int    `json:"gomaxprocs_generator"`
	ServerGOMAXPROCS int    `json:"gomaxprocs_server"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
	Kernel           string `json:"kernel"`
	Network          string `json:"network"`
	NVM              string `json:"nvm"`
}

func currentConditions(root string) conditions {
	c := conditions{
		NProc:            runtime.NumCPU(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: runtime.NumCPU(), // pglserve is started with the generator's environment
		GoVersion:        runtime.Version(),
		Commit:           "unknown",
		Kernel:           "unknown",
		Network:          "tcp over loopback (127.0.0.1), generator and server on the same cores",
		NVM:              "simulated (internal/nvm: a Go byte slice with flush/fence tracking)",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		c.Kernel = strings.TrimSpace(string(b))
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			c.Commit = strings.TrimSpace(string(b))
		}
	}
	return c
}

// report is one run's full record; runset files are arrays of these.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Conditions conditions         `json:"conditions"`
	BuildS     float64            `json:"build_s"`
	Correct    bool               `json:"correct"`
	Attempted  uint64             `json:"attempted_ops"`
	Failed     uint64             `json:"failed_ops"`
	FailFrac   float64            `json:"fail_frac"`
	Metrics    metricSet          `json:"metrics"`
	Info       map[string]float64 `json:"info"`
	// Breakdown is the traced run's mean frame time per layer and op kind
	// (µs), from the peel.
	Breakdown map[string]map[string]float64 `json:"breakdown_us,omitempty"`
}

// resultLine is the last line of standard output, as the benchmark
// contract fixes it.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runner holds what every stage of one run shares.
type runner struct {
	bin   string // pglserve
	work  string // scratch directory of this run, inside .bench_build
	sp    spec
	seed  int64
	keys  []uint64
	nsets int

	rep               *report
	got               map[string]float64 // metrics measured so far
	attempted, failed uint64
}

// tally adds one oracle's counts to the run's.
func (r *runner) tally(or *oracle) {
	r.attempted += or.attempted.Load()
	r.failed += or.failed()
	r.rep.Info["failed_errored"] += float64(or.errored.Load())
	r.rep.Info["failed_wrong_answer"] += float64(or.wrong.Load())
	r.rep.Info["failed_lost_after_crash"] += float64(or.lost.Load())
}

// live is one started, preloaded server with its connections and oracle.
type live struct {
	dir     string
	srv     *serverProc
	clients []*server.Client
	or      *oracle
}

func closeAll(clients []*server.Client) {
	for _, c := range clients {
		c.Close()
	}
}

func (l *live) closeClients() {
	closeAll(l.clients)
	l.clients = nil
}

func (l *live) stop() {
	l.closeClients()
	l.srv.kill()
}

func dial(addr string, conns, depth int) ([]*server.Client, error) {
	var cs []*server.Client
	for i := 0; i < conns; i++ {
		c, err := server.Dial(context.Background(), addr,
			server.WithPipelineDepth(depth), server.WithRequestTimeout(60*time.Second))
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// setup starts a fresh server and preloads it, and returns how long that
// took: everything between deciding to run and the first measured op.
func (r *runner) setup() (*live, float64, error) {
	start := time.Now()
	r.nsets++
	l := &live{dir: filepath.Join(r.work, fmt.Sprintf("set-%d", r.nsets))}
	var err error
	if l.srv, err = startServer(r.bin, l.dir, r.sp.ServerArgs); err != nil {
		return nil, 0, err
	}
	if l.clients, err = dial(l.srv.addr, r.sp.Conns, max(r.sp.Slots, r.sp.Window, 8)); err != nil {
		l.srv.kill()
		return nil, 0, err
	}
	l.or = newOracle(r.keys)
	if r.sp.Preload > 0 {
		preload(l.or, l.clients)
	}
	return l, time.Since(start).Seconds(), nil
}

// measured is the untraced measured phase with the process-level readings
// taken around it.
type measured struct {
	ph          *phase
	lat         latency
	serverCPU   float64 // seconds over the phase
	clientCPU   float64
	rssMB       float64
	before, end server.Stats
}

// drive runs the workload's measured phase against l.
func (r *runner) drive(l *live) *phase {
	if r.sp.Rate > 0 {
		return runOpen(&r.sp, r.seed, l.or, l.clients)
	}
	return runClosed(&r.sp, r.seed, l.or, l.clients)
}

func (r *runner) measure(l *live) (*measured, error) {
	m := &measured{}
	var err error
	if m.before, err = l.clients[0].Stats(); err != nil {
		return nil, err
	}
	cpu0, err := l.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPUSeconds()
	m.ph = r.drive(l)
	m.clientCPU = selfCPUSeconds() - self0
	cpu1, err := l.srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m.serverCPU = cpu1 - cpu0
	if m.end, err = l.clients[0].Stats(); err != nil {
		return nil, err
	}
	if m.rssMB, err = l.srv.peakRSSMB(); err != nil {
		return nil, err
	}
	m.lat = m.ph.latency()
	return m, nil
}

func (m *measured) opsPerSec() float64 {
	return float64(uint64(m.ph.ops)-m.ph.failed) / m.ph.wall.Seconds()
}

// crashRecover sends CRASH, waits for the server to die on its crash
// images, restarts it on them and reads every key back against the last
// acknowledged write. It returns the restart-to-ready time in ms.
func (r *runner) crashRecover(l *live) (float64, error) {
	if r.sp.SyncBeforeCrash {
		if err := l.clients[0].Sync(); err != nil {
			return 0, fmt.Errorf("SYNC: %w", err)
		}
	}
	if err := l.clients[0].Crash(r.seed); err != nil {
		return 0, fmt.Errorf("CRASH: %w", err)
	}
	l.closeClients()
	if err := l.srv.waitExit(60 * time.Second); err != nil {
		l.srv.kill()
		return 0, err
	}
	srv, err := startServer(r.bin, l.dir, r.sp.ServerArgs)
	if err != nil {
		return 0, fmt.Errorf("restart on crash images: %w", err)
	}
	l.srv = srv
	if !srv.recovered {
		return 0, fmt.Errorf("restarted server did not report recovered")
	}
	if l.clients, err = dial(srv.addr, r.sp.Conns, 8); err != nil {
		return 0, err
	}
	readback(l.or, l.clients)
	return float64(srv.startup) / 1e6, nil
}

// ladderRates are the fixed open-loop rates of the traced run's ladder, and
// ladderLimitMS the latency limit a rate must meet to count as sustained.
var ladderRates = []float64{2500, 5000, 10000}

const ladderLimitMS = 20

// ladder runs the standard open-loop mix (50% GET / 40% PUT / 10% DEL,
// uniform over the workload's keys) against the server at each fixed rate
// and reports p99 from the due time per rate, the highest rate that met the
// limit without a growing backlog, and how late the generator ran.
func (r *runner) ladder(l *live, seconds float64) error {
	clients, err := dial(l.srv.addr, 2, 256)
	if err != nil {
		return err
	}
	defer closeAll(clients)
	out := r.got
	out["client.max_rate_ok"] = 0
	for _, rate := range ladderRates {
		step := spec{Conns: 2, Batch: 1, Rate: rate, Window: 256, Get: 0.5, Del: 0.1, Preload: len(r.keys)}
		step.Ops = int(rate*seconds*0.1) / 6 * 6
		ph := runOpen(&step, r.seed+int64(rate), l.or, clients)
		lat := ph.latency()
		p99 := percentile(lat.sortedAll, 0.99)
		out[fmt.Sprintf("client.p99_ms.r%d", int(rate))] = p99
		scheduled := float64(step.Ops) / rate
		if p99 <= ladderLimitMS && ph.wall.Seconds() <= scheduled+0.1 {
			out["client.max_rate_ok"] = rate
		}
		if rate == 5000 {
			sort.Float64s(ph.lateMS)
			out["client.gen_late_p99_ms"] = percentile(ph.lateMS, 0.99)
		}
	}
	return nil
}

// shardMetrics derives the shard- and store-layer numbers of the measured
// phase from the STATS taken around it.
func shardMetrics(a, b server.Stats, liveKeys int, out map[string]float64) {
	d := func(x, y uint64) float64 { return float64(y - x) }
	ratio := func(n, den float64) float64 {
		if den == 0 {
			return 0
		}
		return n / den
	}
	batches := d(a.Batches, b.Batches)
	out["shard.group_depth"] = ratio(d(a.BatchedOps, b.BatchedOps), batches)
	out["shard.commit_wait_frac"] = ratio(d(a.CommitWaits, b.CommitWaits), batches)
	reads := d(a.Gets, b.Gets) + d(a.FastGets, b.FastGets)
	out["shard.fast_get_frac"] = ratio(d(a.FastGets, b.FastGets), reads)
	out["shard.fast_fallback_frac"] = ratio(d(a.FastFallbacks, b.FastFallbacks), reads)
	out["shard.fast_scan_frac"] = ratio(d(a.FastScans, b.FastScans), d(a.FastScans, b.FastScans)+d(a.Scans, b.Scans))
	out["shard.group_fallbacks"] = d(a.GroupFallbacks, b.GroupFallbacks)
	var most, total float64
	for i := range b.Shards {
		x, y := a.Shards[i], b.Shards[i]
		n := d(x.Gets, y.Gets) + d(x.FastGets, y.FastGets) + d(x.Puts, y.Puts) + d(x.Dels, y.Dels)
		most = max(most, n)
		total += n
	}
	out["shard.imbalance"] = ratio(most*float64(len(b.Shards)), total)
	out["store.bytes_per_key"] = ratio(float64(b.Bytes), float64(liveKeys))
	out["logstore.compactions"] = d(a.Compactions, b.Compactions)
	out["logstore.segments"] = float64(b.Segments)
	out["logstore.dead_frac"] = ratio(float64(b.DeadRecords), float64(b.DeadRecords)+float64(b.Objects))
	out["logstore.write_amp"] = 0
	if strings.Contains(b.Backends, store.BackendLog) {
		appended := d(a.Puts, b.Puts) + d(a.Dels, b.Dels)
		out["logstore.write_amp"] = ratio(appended+d(a.MergedRecords, b.MergedRecords), appended)
	}
}

// runOne performs one benchmark run and returns its report. With trace off
// it measures the end-to-end metrics; with trace on, the per-layer ones.
func runOne(root, workload string, seed int64, seconds float64, trace bool, traceOut string) (*report, error) {
	sp, err := workloadByName(workload)
	if err != nil {
		return nil, err
	}
	// --seconds is the run's whole measured time, rounds phases of a third
	// of it each; the traced run drives one such phase per pass.
	sp = sp.scaled(seconds)
	rep := &report{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Conditions: currentConditions(root), Info: map[string]float64{}}
	bin, buildS, err := buildServer(root)
	if err != nil {
		return nil, err
	}
	rep.BuildS = buildS
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	r := &runner{bin: bin, work: work, sp: sp, seed: seed, keys: sp.keys(seed),
		rep: rep, got: map[string]float64{}}
	defs := endToEnd
	if !trace {
		err = r.endToEnd()
	} else {
		defs = perLayer
		err = r.traced(seconds, traceOut)
	}
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = r.attempted, r.failed
	rep.FailFrac = float64(r.failed) / float64(r.attempted)
	rep.Correct = r.failed == 0
	r.got["client.fail_frac"] = rep.FailFrac
	var missing []string
	if rep.Metrics, missing = fill(defs, r.got); len(missing) > 0 {
		return nil, fmt.Errorf("run did not measure %v", missing)
	}
	return rep, nil
}

// rounds is how many times a run repeats set-up and the measured phase.
// Every end-to-end metric is the median over the rounds (the latencies,
// over every segment of every round), which is what keeps one noisy
// neighbour or one unlucky stall from deciding a run's figure.
const rounds = 3

// endToEnd is the untraced run: rounds times over, start a fresh server,
// preload it and drive the measured phase; after the last, crash, recover
// and read everything back.
func (r *runner) endToEnd() error {
	rep, got := r.rep, r.got
	per := map[string][]float64{}
	var segP50, segP95, segP99 []float64
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for round := 0; round < rounds; round++ {
		l, setupS, err := r.setup()
		if err != nil {
			return err
		}
		err = func() error {
			defer l.stop()
			m, err := r.measure(l)
			if err != nil {
				return err
			}
			liveKeys := l.or.live()
			if round == rounds-1 {
				if _, err := r.crashRecover(l); err != nil {
					return err
				}
			}
			r.tally(l.or)
			ops := float64(m.ph.ops)
			add("setup_s", setupS)
			add("ops_per_s", m.opsPerSec())
			add("server_cpu_us_per_op", m.serverCPU*1e6/ops)
			add("server_rss_mb", m.rssMB)
			add("space_amp", float64(m.end.Bytes)/(float64(liveKeys)*16))
			segP50 = append(segP50, m.lat.segP50...)
			segP95 = append(segP95, m.lat.segP95...)
			segP99 = append(segP99, m.lat.segP99...)
			rep.Info["measured_s"] += m.ph.wall.Seconds()
			rep.Info["measured_ops"] += ops
			rep.Info["frames"] += float64(m.lat.n)
			rep.Info["live_keys"] = float64(liveKeys)
			rep.Info["max_ms"] = max(rep.Info["max_ms"], m.lat.max)
			rep.Info["stall_s"] += m.lat.stallS
			return nil
		}()
		os.RemoveAll(l.dir)
		if err != nil {
			return err
		}
	}
	for name, vs := range per {
		got[name] = median(vs)
	}
	// A peak is a maximum: the collector's timing decides whether a round
	// reaches it, and the median of three would flip between two levels.
	got["server_rss_mb"] = slices.Max(per["server_rss_mb"])
	got["p50_ms"] = median(segP50)
	got["p95_ms"] = median(segP95)
	rep.Info["p99_ms"] = median(segP99) // not gated: see README, "Bounds"
	// The fewest samples any one segment's p95 has beyond it.
	rep.Info["p95_samples_beyond_per_segment"] = rep.Info["frames"] / float64(rounds*3) / 20
	return nil
}

// traced is the traced run: an untraced pass (whose STATS give the shard
// and store numbers), unloaded per-kind probes, the rate ladder, crash
// recovery; a second pass with client spans on, whose throughput deficit is
// the tracing overhead; then the in-process layer peel and the kernels.
func (r *runner) traced(seconds float64, traceOut string) error {
	rep, got := r.rep, r.got
	mark := time.Now()
	stage := func(name string) { // wall time of each stage, for the report
		rep.Info["stage_s."+name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	l, _, err := r.setup()
	if err != nil {
		return err
	}
	defer l.stop()
	m, err := r.measure(l)
	if err != nil {
		return err
	}
	stage("1_untraced_pass")
	ops := float64(m.ph.ops)
	shardMetrics(m.before, m.end, l.or.live(), got)
	got["client.p99_ms"] = median(m.lat.segP99)
	got["client.p999_ms"] = m.lat.p999
	got["client.max_ms"] = m.lat.max
	// As a share of the phase, not in seconds: it is exactly 0 wherever no
	// completion gap passes 100 ms, and a time may not read the same on every run.
	got["client.stall_frac"] = m.lat.stallS / m.ph.wall.Seconds()
	rep.Info["stall_s"] = m.lat.stallS
	got["client.cpu_us_per_op"] = m.clientCPU * 1e6 / ops
	probes := max(200, int(50*seconds))
	// A scan of an unordered structure is a full pass per shard (tens of ms
	// on fill_fresh's 110k keys), so it gets fewer probes.
	for kind, n := range map[opKind]int{kGet: probes, kPut: probes, kScan: probes / 16} {
		lat := probe(l.or, l.clients[0], kind, n)
		got["client."+kind.String()+"_p50_ms"] = percentile(lat, 0.50)
		got["client."+kind.String()+"_p99_ms"] = percentile(lat, 0.99)
	}
	stage("2_probes")
	if err := r.ladder(l, seconds); err != nil {
		return err
	}
	stage("3_ladder")
	if got["core.recover_ms"], err = r.crashRecover(l); err != nil {
		return err
	}
	r.tally(l.or)
	l.stop()
	stage("4_crash_recover_readback")

	// The same phase again on a fresh server with spans on.
	l2, _, err := r.setup()
	if err != nil {
		return err
	}
	ph := r.drive(l2)
	r.tally(l2.or)
	l2.stop() // before the peel, which wants the cores to itself
	spans := ph.clientSpans(r.sp.streams())
	tracedRate := float64(uint64(ph.ops)-ph.failed) / ph.wall.Seconds()
	got["trace.overhead_frac"] = 1 - tracedRate/m.opsPerSec()
	stage("5_traced_pass")

	frames := min(int(1000*seconds), r.sp.Ops/r.sp.Batch)
	pr, err := peel(&r.sp, r.seed, r.keys, frames, r.work)
	if err != nil {
		return err
	}
	for k, v := range pr.metrics {
		got[k] = v
	}
	stage("6_peel")
	rep.Breakdown = pr.meanUS
	rep.Info["peel_frames"] = float64(frames)
	rep.Info["untraced_ops_per_s"] = m.opsPerSec()
	rep.Info["traced_ops_per_s"] = tracedRate
	// Every peel op counts as attempted, once per depth; a wrong reply at
	// any depth fails the run.
	r.attempted += uint64(pr.ops * len(peelLayers))
	r.failed += uint64(pr.wrong)
	rep.Info["failed_wrong_answer"] += float64(pr.wrong)

	kernelBench(got)
	if err := coreBench(got); err != nil {
		return err
	}
	if err := structureBench(r.sp.Structure, r.seed, got); err != nil {
		return err
	}
	if err := codecBench(&r.sp, r.seed, r.keys, frames, got); err != nil {
		return err
	}
	stage("7_kernels")
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		err = enc.Encode(append(spans, pr.spans...))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	return nil
}

// clientSpans turns the phase's samples into spans, one per frame.
func (ph *phase) clientSpans(streams int) []span {
	var out []span
	for s, st := range ph.samples {
		for j, sm := range st {
			out = append(out, span{OpID: int64(j*streams + s), Layer: "client", Name: sm.kind.String(),
				Start: sm.start, End: sm.end})
		}
	}
	return out
}
