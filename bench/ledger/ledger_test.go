package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/server"
)

// ---- oracle ----

func TestOracleCountsPlantedFailures(t *testing.T) {
	keys := makeKeys(1, 8)
	or := newOracle(keys)
	or.preloaded()

	// A correct reply passes.
	if !or.checkGet(0, or.ackedBefore(0), valueFor(keys[0], 1), true) {
		t.Fatal("correct GET reply rejected")
	}
	// Planted wrong reply: the value of a different key.
	if or.checkGet(0, or.ackedBefore(0), valueFor(keys[1], 1), true) {
		t.Fatal("GET reply with another key's tag accepted")
	}
	// Planted stale reply: version 1 after version 2 was acknowledged.
	ver, _, was := or.beginWrite(2, false)
	if ver != 2 || !was {
		t.Fatalf("beginWrite on a preloaded key = version %d, present %v", ver, was)
	}
	or.ackWrite(2, ver, false)
	if or.checkGet(2, or.ackedBefore(2), valueFor(keys[2], 1), true) {
		t.Fatal("stale GET reply accepted")
	}
	// Planted phantom miss: the key was never deleted.
	if or.checkGet(3, or.ackedBefore(3), 0, false) {
		t.Fatal("not-found for a live key accepted")
	}
	if got := or.wrong.Load(); got != 3 {
		t.Fatalf("wrong-answer count = %d, want 3", got)
	}

	// A miss is fine once a DEL has been issued, even before its ack.
	before := or.ackedBefore(4)
	dver, _, _ := or.beginWrite(4, true)
	if !or.checkGet(4, before, 0, false) || !or.checkGet(4, before, valueFor(keys[4], 1), true) {
		t.Fatal("replies racing an in-flight DEL rejected")
	}
	or.ackWrite(4, dver, true)

	// Crash readback: key 2 must hold version 2, key 4 must be gone. A
	// dropped write (key 2 back at version 1) and a resurrected key are
	// both lost acknowledged writes.
	if !or.checkReadback(2, valueFor(keys[2], 2), true) || !or.checkReadback(4, 0, false) {
		t.Fatal("correct readback rejected")
	}
	if or.checkReadback(2, valueFor(keys[2], 1), true) {
		t.Fatal("dropped acknowledged write not counted")
	}
	if or.checkReadback(4, valueFor(keys[4], 1), true) {
		t.Fatal("key surviving its acknowledged DEL not counted")
	}
	if or.checkReadback(5, 0, false) {
		t.Fatal("missing preloaded key not counted")
	}
	if or.lost.Load() != 3 || or.failed() != 6 {
		t.Fatalf("lost = %d, failed = %d, want 3 and 6", or.lost.Load(), or.failed())
	}
	if or.live() != 7 {
		t.Fatalf("live = %d, want 7", or.live())
	}
}

func TestOracleScan(t *testing.T) {
	keys := makeKeys(3, 200)
	or := newOracle(keys)
	or.preloaded()
	lo := or.sorted[50]
	var ks, vs []uint64
	for _, k := range or.sorted[50 : 50+scanLimit] {
		ks = append(ks, k)
		vs = append(vs, valueFor(k, 1))
	}
	if !or.checkScan(lo, scanLimit, ks, vs) {
		t.Fatal("exact scan page rejected")
	}
	swapped := append([]uint64(nil), ks...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	for name, bad := range map[string][]uint64{
		"descending pair": swapped,
		"missing pair":    append(append([]uint64(nil), ks[:10]...), ks[11:]...),
		"below lo":        append([]uint64{or.sorted[49]}, ks[:scanLimit-1]...),
	} {
		bv := make([]uint64, len(bad))
		for j, k := range bad {
			bv[j] = valueFor(k, 1)
		}
		if or.checkScan(lo, scanLimit, bad, bv) {
			t.Errorf("scan page with %s accepted", name)
		}
	}
	if or.checkScan(lo, scanLimit-1, ks, vs) {
		t.Error("scan page longer than its limit accepted")
	}
	vs[7] ^= 1 << 40
	if or.checkScan(lo, scanLimit, ks, vs) {
		t.Error("scan page with a foreign value tag accepted")
	}
}

// ---- generator ----

func streamBytes(sp *spec, seed int64, n int) []byte {
	gs := newGlobalStream(sp, seed)
	var b []byte
	for i := 0; i < n; i++ {
		b = gs.next().appendTo(b)
	}
	return b
}

func TestStreamDependsOnSeedOnly(t *testing.T) {
	for _, w := range workloads {
		sp := w.scaled(1)
		a, b, c := streamBytes(&sp, 7, 5000), streamBytes(&sp, 7, 5000), streamBytes(&sp, 8, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different streams", w.Name)
		}
		if !sp.Fresh && bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same stream", w.Name)
		}
		if ka, kb, kc := sp.keys(7), sp.keys(7), sp.keys(8); !slices.Equal(ka, kb) || slices.Equal(ka, kc) {
			t.Errorf("%s: keys are not a function of the seed alone", w.Name)
		}
	}
}

func TestFillFreshIsAPermutation(t *testing.T) {
	sp, _ := workloadByName("fill_fresh")
	sp = sp.scaled(1)
	gs := newGlobalStream(&sp, 1)
	seen := make([]bool, sp.Ops)
	for i := 0; i < sp.Ops; i++ {
		op := gs.next()
		if op.kind != kPut || seen[op.idx[0]] {
			t.Fatalf("op %d: kind %v, index %d seen before: %v", i, op.kind, op.idx[0], seen[op.idx[0]])
		}
		seen[op.idx[0]] = true
	}
	// At full size: distinct keys, every prefix split by freshShares (so the
	// shards' growths are thousands of keys apart), and the fullest shard
	// short of the 32,768-entry growth.
	full, _ := workloadByName("fill_fresh")
	full = full.scaled(60)
	keys := full.keys(1)
	distinct := map[uint64]bool{}
	var perShard [peelShards]int
	for i, k := range keys {
		distinct[k] = true
		perShard[shardOf(k)]++
		if i+1 == 50000 {
			for s, n := range perShard {
				if want := freshShares[s] * 50000; math.Abs(float64(n)-want) > 2 {
					t.Errorf("first 50,000 keys: shard %d holds %d, want %.0f", s, n, want)
				}
			}
		}
	}
	if len(distinct) != len(keys) || len(keys) != 110016 {
		t.Fatalf("%d keys, %d distinct, want 110016 of each", len(keys), len(distinct))
	}
	if perShard[0] >= 32768 || perShard[0] < perShard[3] {
		t.Fatalf("shard loads %v: the fullest must be shard 0 and stay under 32,768", perShard)
	}
}

func TestStreamMixOwnershipAndSkew(t *testing.T) {
	for _, w := range workloads[1:] {
		sp := w.scaled(4)
		streams := sp.streams()
		const perStream = 4000
		counts := map[opKind]int{}
		hits := make([]int, sp.universe())
		for s := 0; s < streams; s++ {
			g := newStream(&sp, 5, s)
			for i := 0; i < perStream; i++ {
				op := g.next()
				counts[op.kind]++
				if len(op.idx) != sp.Batch {
					t.Fatalf("%s: frame of %d ops, want %d", w.Name, len(op.idx), sp.Batch)
				}
				for j, ix := range op.idx {
					if (op.kind == kPut || op.kind == kDel) && int(ix)%streams != s {
						t.Fatalf("%s: stream %d writes key %d, which stream %d owns", w.Name, s, ix, int(ix)%streams)
					}
					for _, prev := range op.idx[:j] {
						if prev == ix {
							t.Fatalf("%s: frame names key %d twice", w.Name, ix)
						}
					}
					hits[ix]++
				}
			}
		}
		total := float64(streams * perStream)
		for kind, want := range map[opKind]float64{kGet: sp.Get, kScan: sp.Scan, kDel: sp.Del, kPut: 1 - sp.Get - sp.Scan - sp.Del} {
			if got := float64(counts[kind]) / total; math.Abs(got-want) > 0.02 {
				t.Errorf("%s: %v share %.3f, want %.3f", w.Name, kind, got, want)
			}
		}
		// Skew: under zipf the hottest 1% of keys take most draws; under a
		// uniform law they take about 1%.
		top := 0
		for _, h := range hits[:len(hits)/100] {
			top += h
		}
		share := float64(top) / (total * float64(sp.Batch))
		if sp.Zipf && share < 0.5 {
			t.Errorf("%s: hottest 1%% of keys drew %.2f of ops, want a zipfian majority", w.Name, share)
		}
		if !sp.Zipf && share > 0.03 {
			t.Errorf("%s: hottest 1%% of keys drew %.2f of ops, want about 0.01", w.Name, share)
		}
	}
}

func TestScaledCounts(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []float64{1, 20, 60} {
			sp := w.scaled(seconds)
			unit := sp.streams() * sp.Batch * 3
			if sp.Ops%unit != 0 || sp.Ops == 0 {
				t.Errorf("%s at %g s: %d ops is not whole frames per stream and segment", w.Name, seconds, sp.Ops)
			}
			if sp.Fresh && sp.Ops > 110016 {
				t.Errorf("fill_fresh at %g s: %d keys crosses the 32,768-per-shard growth", seconds, sp.Ops)
			}
		}
	}
}

// ---- statistics ----

func TestPercentileAndQuartiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.99: 99, 0.999: 100, 1: 100, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g %g %g, want 1 3 4.5", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	if median([]float64{5, 1, 3}) != 3 || median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median is wrong")
	}
}

func TestSegmentMedianIgnoresOneBadSegment(t *testing.T) {
	var lat []float64
	var seg []uint8
	for s := 0; s < 3; s++ {
		for i := 1; i <= 100; i++ {
			l := float64(i)
			if s == 1 && i > 90 {
				l = 5000 // a stall that lands in the middle segment only
			}
			lat, seg = append(lat, l), append(seg, uint8(s))
		}
	}
	if got := segmentQuantiles(lat, seg, 0.99); len(got) != 3 || got[0] != 99 || got[1] != 5000 || got[2] != 99 {
		t.Errorf("segment p99s = %v, want [99 5000 99]", got)
	}
	if got := median(segmentQuantiles(lat, seg, 0.99)); got != 99 {
		t.Errorf("segment-median p99 = %g, want 99 (the stalled segment's 5000 must not win)", got)
	}
	if got := median(segmentQuantiles(lat, seg, 0.5)); got != 50 {
		t.Errorf("segment-median p50 = %g, want 50", got)
	}
}

func TestStallSeconds(t *testing.T) {
	ends := []int64{0, 50e6, 99e6, 400e6, 450e6, 1450e6} // gaps 50, 49, 301, 50, 1000 ms
	if got := stallSeconds(ends); math.Abs(got-1.301) > 1e-9 {
		t.Errorf("stallSeconds = %g, want 1.301", got)
	}
}

// ---- open loop ----

// stubServer speaks just enough of protocol v2 to acknowledge PUTs, and
// stalls once, for stall, before answering the stallAt-th request.
func stubServer(t *testing.T, stallAt int, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		hello, err := server.ReadFrame(br, nil)
		if err != nil {
			return
		}
		_, window, ok := server.DecodeHello(hello)
		if !ok {
			return
		}
		ack := binary.BigEndian.AppendUint64(nil, server.ProtocolV2)
		ack = binary.BigEndian.AppendUint64(ack, uint64(server.GrantWindow(window)))
		server.WriteFrame(bw, server.EncodeResponse(nil, server.StatusOK, ack))
		bw.Flush()
		var buf []byte
		for n := 0; ; n++ {
			if buf, err = server.ReadFrame(br, buf[:0]); err != nil {
				return
			}
			seq, _, err := server.DecodeRequestSeq(buf)
			if err != nil {
				return
			}
			if n == stallAt {
				time.Sleep(stall)
			}
			server.WriteFrame(bw, server.EncodeResponseSeq(nil, seq, server.StatusOK, nil))
			bw.Flush()
		}
	}()
	return ln.Addr().String()
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	addr := stubServer(t, 100, stall)
	clients, err := dial(addr, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer clients[0].Close()
	// 2,000 PUTs/s for 0.2 s: the stall at op 100 covers the due times of
	// about the next 100 ops, which a closed loop would simply not have
	// sent yet.
	sp := spec{Conns: 1, Batch: 1, Rate: 2000, Window: 256, Preload: 1024, Ops: 400}
	or := newOracle(makeKeys(1, sp.Preload))
	or.preloaded()
	ph := runOpen(&sp, 1, or, clients)
	if or.failed() != 0 {
		t.Fatalf("%d ops failed against the stub", or.failed())
	}
	delayed := 0
	for j, s := range ph.samples[0] {
		lat := time.Duration(s.end - s.start)
		due := time.Duration(j) * time.Second / 2000
		if s.start != int64(due) {
			t.Fatalf("op %d timed from %v, want its due time %v", j, time.Duration(s.start), due)
		}
		if j > 100 && j <= 180 && lat < stall/5 {
			t.Errorf("op %d was due during the stall but shows %v: not timed from its due time", j, lat)
		}
		if lat >= stall/5 {
			delayed++
		}
	}
	if delayed < 80 {
		t.Errorf("%d ops show the stall, want the ~100 that were due during it", delayed)
	}
	if lat := ph.latency(); lat.max < float64(stall)/1e6 {
		t.Errorf("max latency %.1f ms is below the %v stall", lat.max, stall)
	}
}

// ---- layer peel ----

func TestShardRouting(t *testing.T) {
	set, err := shard.Create(t.TempDir(), peelShards, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Abandon()
	for _, k := range makeKeys(9, 10000) {
		if shardOf(k) != set.ShardOf(k) {
			t.Fatalf("key %#x: peel routes to shard %d, shard.Set to %d", k, shardOf(k), set.ShardOf(k))
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"mixed_rate", "fill_fresh"} {
		sp, _ := workloadByName(name)
		sp = sp.scaled(1)
		keys := makeKeys(4, sp.universe())
		var runs [2]*peelResult
		for i := range runs {
			var err error
			if runs[i], err = peel(&sp, 4, keys, 600, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			if runs[i].wrong != 0 {
				t.Fatalf("%s: peel %d saw %d wrong replies", name, i, runs[i].wrong)
			}
		}
		exact := 0
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			exact++
			a, ok := runs[0].metrics[d.Name]
			b := runs[1].metrics[d.Name]
			if !ok {
				t.Errorf("%s: peel did not measure %s", name, d.Name)
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: exact metric %s drifted between two peels of one seed: %v vs %v", name, d.Name, a, b)
			}
			if a == 0 {
				t.Errorf("%s: exact metric %s is 0 on a pangolin workload", name, d.Name)
			}
		}
		if exact != 8 {
			t.Errorf("%d exact metrics, want 8", exact)
		}
		// Self times must add up to the outermost round trip.
		m := runs[0].metrics
		sum := m["server.self_us"] + m["shard.self_us"] + m["store.self_us"] + m["structures.self_us"] + m["core.rt_us"]
		if math.Abs(sum-m["server.rt_us"]) > 1e-6*m["server.rt_us"] {
			t.Errorf("%s: layer self times sum to %g us, server.rt_us is %g", name, sum, m["server.rt_us"])
		}
		if len(runs[0].spans) != 600*len(peelLayers) {
			t.Errorf("%s: %d spans, want one per op per depth", name, len(runs[0].spans))
		}
	}
}

// ---- the contract file and the README ----

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark directory")
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench/ledger" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their whys differ)", i, bj.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters, the contract allows one line of 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	sawSetup := false
	for i, d := range endToEnd {
		b := bj.EndToEnd[i]
		if b.Name != d.Name || b.Unit != d.Unit || b.Better != d.Better || b.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, b, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	names := map[string]bool{}
	for i, d := range perLayer {
		b := bj.PerLayer[i]
		if b.Name != d.Name || b.Unit != d.Unit || b.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %s %s %s", i, b, d.Name, d.Unit, d.Better)
		}
		if names[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || d.Layer == "" || d.Moves == "" {
			t.Errorf("per_layer %s: duplicate, too long, or missing its layer or the metric it moves", d.Name)
		}
		names[d.Name] = true
	}
}

func TestReadmeNamesEveryWorkloadAndMetric(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not name workload %s", w.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not name metric %s", d.Name)
		}
	}
}

// ---- compare ----

func fakeRunset(t *testing.T, path string, scale map[string]float64, jitter float64) {
	var reps []*report
	for i := 0; i < 10; i++ {
		for _, w := range workloads {
			m := metricSet{}
			for _, d := range endToEnd {
				f := scale[d.Name]
				if f == 0 {
					f = 1
				}
				m[d.Name] = value{Value: 100 * f * (1 + jitter*float64(i-5)/5), Unit: d.Unit}
			}
			reps = append(reps, &report{Workload: w.Name, Seed: int64(i), Metrics: m, Correct: true})
		}
	}
	if err := writeJSON(path, reps); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	a, b, noisy := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "n.json")
	fakeRunset(t, a, nil, 0.01)
	// ops_per_s down 40% (bound 25%) regresses; p50_ms up 5% (bound 25%)
	// does not; server_rss_mb down is an improvement.
	fakeRunset(t, b, map[string]float64{"ops_per_s": 0.6, "p50_ms": 1.05, "server_rss_mb": 0.5}, 0.01)
	fakeRunset(t, noisy, nil, 0.5)
	var out bytes.Buffer
	if err := compare(&out, a, b); err == nil {
		t.Error("compare did not fail on a regression")
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch {
		case f[1] == "ops_per_s" && !strings.HasSuffix(line, "regressed"):
			t.Errorf("ops_per_s 40%% down not reported as regressed: %s", line)
		case (f[1] == "p50_ms" || f[1] == "server_rss_mb" || f[1] == "p95_ms") && !strings.HasSuffix(line, "unchanged"):
			t.Errorf("%s not reported as unchanged: %s", f[1], line)
		}
	}
	out.Reset()
	if err := compare(&out, a, noisy); err != nil {
		t.Errorf("compare failed on noise: %v", err)
	}
	if !strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "unchanged") {
		t.Errorf("a side with 50%% jitter must leave every metric unresolved:\n%s", out.String())
	}
}

// ---- smoke ----

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "pglserve")); err != nil {
		t.Skip("no cmd/pglserve above the benchmark directory")
	}
	start := time.Now()
	if err := smoke(root); err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke took %v", time.Since(start))
}
