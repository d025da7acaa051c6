package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
)

type opKind uint8

const (
	kGet opKind = iota + 1
	kPut
	kDel
	kScan
)

func (k opKind) String() string {
	return [...]string{"?", "get", "put", "del", "scan"}[k]
}

const scanLimit = 64

// spec is one named workload. Op counts are fixed for a given --seconds
// (Ops and Preload are the counts of one round at --seconds 20 and scale
// linearly), not durations, so the end state and the exact counters are the
// same on every commit.
type spec struct {
	Name string
	Why  string
	// ServerArgs are the pglserve flags beyond -dir/-addr; Structure and
	// Backend repeat them for the in-process peel.
	ServerArgs     []string
	Structure      string
	Backend        string
	LogSegBytes    int64
	Preload        int // keys loaded before the measured phase
	Ops            int // individual operations in the measured phase
	Conns          int
	Slots          int     // closed loop: one op in flight per slot, per connection
	Batch          int     // operations per frame
	Rate           float64 // open loop when > 0: operations per second over all connections
	Window         int     // open loop: in-flight window per connection
	Get, Scan, Del float64 // mix; the remainder is PUT
	Zipf           bool    // keys zipfian (s = 1.1) instead of uniform
	Fresh          bool    // every op PUTs a key not seen before
	// SyncBeforeCrash sends SYNC ahead of CRASH. The seed's logstore
	// acknowledges a write before it is on media (it fsyncs at rotation and
	// on SYNC only — ROADMAP item 5), so its crash image may drop the
	// unsynced tail; until that is fixed the readback can only hold it to
	// what it promises.
	SyncBeforeCrash bool
}

var workloads = []spec{
	{
		Name:      "fill_fresh",
		Why:       "bulk load of distinct keys into an empty store: the whole write path (growth, alloc, log, checksum, parity, flush/fence) works, deep group commits amortise it, the read fast path is idle",
		Structure: "hashmap", Backend: "pangolin",
		Ops: 110000, Conns: 2, Slots: 32, Batch: 1, Fresh: true,
	},
	{
		Name:       "read_hot",
		Why:        "90% GET / 5% SCAN / 5% PUT zipfian on a btree: the reader gate, view lookups, verified reads and codec do the work, the few writes keep the gate contended, the skew exposes shard imbalance",
		ServerArgs: []string{"-structure", "btree"},
		Structure:  "btree", Backend: "pangolin",
		Preload: 100000, Ops: 400000, Conns: 2, Slots: 32, Batch: 1,
		Get: 0.90, Scan: 0.05, Zipf: true,
	},
	{
		Name:      "mixed_rate",
		Why:       "open loop at 5,000 ops/s, 50% GET / 40% PUT / 10% DEL uniform: group depth about 1, so each write pays the full per-commit cost, and timing from the due time charges a stall to every op behind it",
		Structure: "hashmap", Backend: "pangolin",
		Preload: 48000, Ops: 33336, Conns: 2, Batch: 1, Rate: 5000, Window: 256,
		Get: 0.50, Del: 0.10,
	},
	{
		Name:       "log_batch",
		Why:        "frames of 16 (60% MPUT / 30% MGET / 10% MDEL) on the logstore backend with compaction running: bypasses structures, core, csum, parity and nvm, so a change there must not move it",
		ServerArgs: []string{"-backend", "logstore", "-log-segment-bytes", "1048576", "-scrub-interval", "2ms"},
		Structure:  "hashmap", Backend: "logstore", LogSegBytes: 1 << 20,
		Preload: 48000, Ops: 2000000, Conns: 2, Slots: 4, Batch: 16,
		Get: 0.30, Del: 0.10, SyncBeforeCrash: true,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// streams is how many independent op streams the workload has: one per
// closed-loop slot, one per open-loop connection. A key is only ever
// written by the stream that owns it (index mod streams), so every key has
// a single writer and its writes are totally ordered.
func (sp *spec) streams() int {
	if sp.Rate > 0 {
		return sp.Conns
	}
	return sp.Conns * sp.Slots
}

// scaled returns the workload sized for a run of the given measured time:
// counts scale with seconds/20 and round up to whole frames per stream,
// three segments each. fill_fresh never exceeds its base count, which keeps
// every shard under the 32,768-entry growth the seed cannot finish (see
// README).
func (sp spec) scaled(seconds float64) spec {
	f := seconds / 20
	if sp.Fresh && f > 1 {
		f = 1
	}
	unit := sp.streams() * sp.Batch * 3
	round := func(n int) int {
		n = int(float64(n) * f)
		return (n + unit - 1) / unit * unit
	}
	sp.Ops = round(sp.Ops)
	if sp.Preload > 0 {
		sp.Preload = round(sp.Preload)
	}
	return sp
}

// universe is the number of distinct keys the workload touches.
func (sp *spec) universe() int {
	if sp.Fresh {
		return sp.Ops
	}
	return sp.Preload
}

// keys returns the workload's key universe for a seed.
func (sp *spec) keys(seed int64) []uint64 {
	if sp.Fresh {
		return makeFreshKeys(seed, sp.universe())
	}
	return makeKeys(seed, sp.universe())
}

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// makeKeys returns the workload's key universe: n distinct pseudo-random
// keys that depend on the seed and on nothing else.
func makeKeys(seed int64, n int) []uint64 {
	base := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = mix64(base + uint64(i))
	}
	return keys
}

// freshShares is the share of a fill_fresh key sequence dealt to each of
// pglserve's four shards. With even shares every shard reaches each table
// growth within a few dozen keys of the others, and whether two growth
// transactions then overlap on the two cores (a near-coincidence the seed
// decides) moves a 110k-key fill's time by ±30%. Uneven shares put the
// shards' growths thousands of keys apart, so they always run one after
// the other — the worst case, and one that repeats. The largest share
// keeps shard 0 at 30,800 of 110,000 keys, under the 32,768 cliff.
var freshShares = [peelShards]float64{0.28, 0.26, 0.24, 0.22}

// makeFreshKeys returns n distinct keys that depend only on the seed,
// ordered so that every prefix holds each shard's share of freshShares.
func makeFreshKeys(seed int64, n int) []uint64 {
	var quota [peelShards]int
	left := n
	for s := peelShards - 1; s > 0; s-- {
		quota[s] = int(freshShares[s] * float64(n))
		left -= quota[s]
	}
	quota[0] = left
	var buckets [peelShards][]uint64
	base := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	for i, short := uint64(0), peelShards; short > 0; i++ {
		k := mix64(base + i)
		if s := shardOf(k); len(buckets[s]) < quota[s] {
			if buckets[s] = append(buckets[s], k); len(buckets[s]) == quota[s] {
				short--
			}
		}
	}
	keys := make([]uint64, 0, n)
	var dealt [peelShards]int
	for len(keys) < n {
		// Deal to the shard furthest behind its share.
		best, bestDue := -1, 0.0
		for s := range buckets {
			if due := float64(dealt[s]+1) / freshShares[s]; dealt[s] < quota[s] && (best < 0 || due < bestDue) {
				best, bestDue = s, due
			}
		}
		keys = append(keys, buckets[best][dealt[best]])
		dealt[best]++
	}
	return keys
}

// streamOp is one generated frame: its kind and the key indices it
// carries (one, or Batch of them).
type streamOp struct {
	kind opKind
	idx  []int32
}

// appendTo serialises the op, for the byte-identical-stream test.
func (op streamOp) appendTo(b []byte) []byte {
	b = append(b, byte(op.kind), byte(len(op.idx)))
	for _, i := range op.idx {
		b = binary.LittleEndian.AppendUint32(b, uint32(i))
	}
	return b
}

// stream generates one stream's ops. It is a pure function of (workload,
// seed, stream number): the server and its timing never feed back into it.
type stream struct {
	sp      *spec
	id, of  int
	n       int // key universe
	rng     *rand.Rand
	zipf    *rand.Zipf
	emitted int
	buf     []int32
}

func newStream(sp *spec, seed int64, id int) *stream {
	g := &stream{sp: sp, id: id, of: sp.streams(), n: sp.universe()}
	g.rng = rand.New(rand.NewSource(seed*1000003 + int64(id)))
	if sp.Zipf {
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(g.n-1))
	}
	g.buf = make([]int32, sp.Batch)
	return g
}

// draw picks a key index by the workload's popularity law; rank 0 is the
// hottest.
func (g *stream) draw() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.n)
}

// owned maps a drawn index to the nearest index this stream owns, keeping
// the popularity rank within one group of `of` neighbours.
func (g *stream) owned(i int) int {
	i = i - i%g.of + g.id
	if i >= g.n {
		i -= g.of
	}
	return i
}

// next returns the stream's next frame. The returned idx slice is reused
// by the following call.
func (g *stream) next() streamOp {
	op := streamOp{kind: kPut, idx: g.buf}
	if g.sp.Fresh {
		// The j-th op of stream s inserts key j*streams+s: every key once.
		op.idx[0] = int32(g.emitted*g.of + g.id)
		g.emitted++
		return op
	}
	switch r := g.rng.Float64(); {
	case r < g.sp.Get:
		op.kind = kGet
	case r < g.sp.Get+g.sp.Scan:
		op.kind = kScan
	case r < g.sp.Get+g.sp.Scan+g.sp.Del:
		op.kind = kDel
	}
	for j := 0; j < len(op.idx); {
		i := g.draw()
		if op.kind == kPut || op.kind == kDel {
			i = g.owned(i)
		}
		if !slices.Contains(op.idx[:j], int32(i)) { // a frame never names one key twice
			op.idx[j] = int32(i)
			j++
		}
	}
	g.emitted++
	return op
}

// globalStream interleaves the per-stream generators round-robin: op j of
// the workload is op j/streams of stream j%streams. The layer peel replays
// a prefix of it with one op in flight.
type globalStream struct {
	gens []*stream
	j    int
}

func newGlobalStream(sp *spec, seed int64) *globalStream {
	gs := &globalStream{}
	for s := 0; s < sp.streams(); s++ {
		gs.gens = append(gs.gens, newStream(sp, seed, s))
	}
	return gs
}

func (gs *globalStream) next() streamOp {
	op := gs.gens[gs.j%len(gs.gens)].next()
	gs.j++
	return op
}
