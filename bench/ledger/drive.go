package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/pangolin-go/pangolin/server"
)

// sample is one frame's timing, in ns since its phase began. In an open
// loop start is the time the op was due, not the time it was sent.
type sample struct {
	start, end int64
	kind       opKind
	seg        uint8 // which third of its stream's ops it belongs to
}

// span is one traced interval. Spans of one op share op_id across layers
// and parent names the layer whose span caused this one.
type span struct {
	OpID   int64  `json:"op_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

// phase is the record of one driven load.
type phase struct {
	samples [][]sample // per stream
	lateMS  []float64  // open loop: how late each op was sent
	wall    time.Duration
	ops     int    // individual operations
	failed  uint64 // of which errored or were answered wrongly
}

// frame holds one frame's decoded keys and write bookkeeping; each stream
// owns one and reuses it.
type frame struct {
	keys, vals []uint64
	vers       []uint32
	was        []bool
	before     []uint64
}

func newFrame(n int) *frame {
	return &frame{make([]uint64, n), make([]uint64, n), make([]uint32, n), make([]bool, n), make([]uint64, n)}
}

// sendFrame sends one frame on c, waits for its reply and checks it against the
// oracle. Every failure is counted there.
func sendFrame(c *server.Client, or *oracle, op streamOp, f *frame) {
	n := len(op.idx)
	or.attempted.Add(uint64(n))
	keys := f.keys[:n]
	for j, i := range op.idx {
		keys[j] = or.keys[i]
	}
	if n == 1 {
		i := op.idx[0]
		switch op.kind {
		case kGet:
			before := or.ackedBefore(i)
			v, found, err := c.Get(keys[0])
			if err != nil {
				or.errored.Add(1)
				return
			}
			or.checkGet(i, before, v, found)
		case kPut:
			ver, val, _ := or.beginWrite(i, false)
			if err := c.Put(keys[0], val); err != nil {
				or.errored.Add(1)
				return
			}
			or.ackWrite(i, ver, false)
		case kDel:
			ver, _, was := or.beginWrite(i, true)
			present, err := c.Del(keys[0])
			if err != nil {
				or.errored.Add(1)
				return
			}
			if present != was {
				or.wrong.Add(1)
			}
			or.ackWrite(i, ver, true)
		case kScan:
			pairs, _, _, err := c.Scan(keys[0], math.MaxUint64, scanLimit, 0)
			if err != nil {
				or.errored.Add(1)
				return
			}
			ks, vs := make([]uint64, len(pairs)), make([]uint64, len(pairs))
			for j, p := range pairs {
				ks[j], vs[j] = p.K, p.V
			}
			or.checkScan(keys[0], scanLimit, ks, vs)
		}
		return
	}
	switch op.kind {
	case kGet:
		for j, i := range op.idx {
			f.before[j] = or.ackedBefore(i)
		}
		vals, found, err := c.MGet(keys)
		if err != nil {
			or.errored.Add(uint64(n))
			return
		}
		for j, i := range op.idx {
			or.checkGet(i, f.before[j], vals[j], found[j])
		}
	case kPut:
		for j, i := range op.idx {
			f.vers[j], f.vals[j], _ = or.beginWrite(i, false)
		}
		if err := c.MPut(keys, f.vals[:n]); err != nil {
			or.errored.Add(uint64(n))
			return
		}
		for j, i := range op.idx {
			or.ackWrite(i, f.vers[j], false)
		}
	case kDel:
		for j, i := range op.idx {
			f.vers[j], _, f.was[j] = or.beginWrite(i, true)
		}
		present, err := c.MDel(keys)
		if err != nil {
			or.errored.Add(uint64(n))
			return
		}
		for j, i := range op.idx {
			if present[j] != f.was[j] {
				or.wrong.Add(1)
			}
			or.ackWrite(i, f.vers[j], true)
		}
	}
}

// runClosed drives a closed loop: every stream keeps exactly one frame in
// flight on its connection until it has sent its share of sp.Ops.
func runClosed(sp *spec, seed int64, or *oracle, clients []*server.Client) *phase {
	streams := sp.streams()
	frames := sp.Ops / sp.Batch / streams
	ph := &phase{samples: make([][]sample, streams), ops: frames * streams * sp.Batch}
	failed0 := or.failed()
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g := newStream(sp, seed, s)
			c := clients[s%len(clients)]
			f := newFrame(sp.Batch)
			buf := make([]sample, frames)
			for j := range buf {
				op := g.next()
				start := time.Since(t0)
				sendFrame(c, or, op, f)
				end := time.Since(t0)
				buf[j] = sample{int64(start), int64(end), op.kind, uint8(j * 3 / frames)}
			}
			ph.samples[s] = buf
		}(s)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.failed = or.failed() - failed0
	return ph
}

// runOpen drives an open loop of single-op GET/PUT/DEL frames: op j is due
// at j/rate seconds whatever the server is doing, each connection's ops are
// submitted in due order by one dispatcher (so a key's writes reach its
// shard in order), and latency runs from the due time.
func runOpen(sp *spec, seed int64, or *oracle, clients []*server.Client) *phase {
	conns := sp.streams()
	per := sp.Ops / conns
	ph := &phase{samples: make([][]sample, conns), ops: per * conns}
	late := make([][]float64, conns)
	failed0 := or.failed()
	ctx := context.Background()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g := newStream(sp, seed, c)
			cl := clients[c%len(clients)]
			buf := make([]sample, per)
			late[c] = make([]float64, per)
			var inflight sync.WaitGroup
			for j := 0; j < per; j++ {
				due := time.Duration(float64(j*conns+c) / sp.Rate * 1e9)
				if d := due - time.Since(t0); d > 0 {
					time.Sleep(d)
				}
				op := g.next()
				i := op.idx[0]
				key := or.keys[i]
				or.attempted.Add(1)
				late[c][j] = float64(time.Since(t0)-due) / 1e6
				// Submission (which blocks while the window is full)
				// happens here, in due order; only the wait for the reply
				// moves to its own goroutine.
				var settle func() // waits for the reply and checks it
				switch op.kind {
				case kGet:
					before := or.ackedBefore(i)
					fu := cl.GetAsync(ctx, key)
					settle = func() {
						if v, found, err := fu.Result(ctx); err != nil {
							or.errored.Add(1)
						} else {
							or.checkGet(i, before, v, found)
						}
					}
				case kPut:
					ver, val, _ := or.beginWrite(i, false)
					fu := cl.PutAsync(ctx, key, val)
					settle = func() {
						if err := fu.Result(ctx); err != nil {
							or.errored.Add(1)
						} else {
							or.ackWrite(i, ver, false)
						}
					}
				case kDel:
					ver, _, was := or.beginWrite(i, true)
					fu := cl.DelAsync(ctx, key)
					settle = func() {
						present, err := fu.Result(ctx)
						if err != nil {
							or.errored.Add(1)
							return
						}
						if present != was {
							or.wrong.Add(1)
						}
						or.ackWrite(i, ver, true)
					}
				}
				inflight.Add(1)
				go func() {
					defer inflight.Done()
					settle()
					buf[j] = sample{int64(due), int64(time.Since(t0)), op.kind, uint8(j * 3 / per)}
				}()
			}
			inflight.Wait()
			ph.samples[c] = buf
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	ph.failed = or.failed() - failed0
	for _, l := range late {
		ph.lateMS = append(ph.lateMS, l...)
	}
	return ph
}

// latency summarises a phase's frame latencies in milliseconds.
type latency struct {
	segP50, segP95, segP99 []float64 // each segment's quantile
	p999, max              float64   // over the whole phase
	stallS                 float64
	n                      int // frames
	sortedAll              []float64
}

func (ph *phase) latency() latency {
	var lat []float64
	var seg []uint8
	var ends []int64
	for _, st := range ph.samples {
		for _, s := range st {
			lat = append(lat, float64(s.end-s.start)/1e6)
			seg = append(seg, s.seg)
			ends = append(ends, s.end)
		}
	}
	all := append([]float64(nil), lat...)
	sort.Float64s(all)
	return latency{
		segP50:    segmentQuantiles(lat, seg, 0.50),
		segP95:    segmentQuantiles(lat, seg, 0.95),
		segP99:    segmentQuantiles(lat, seg, 0.99),
		p999:      percentile(all, 0.999),
		max:       all[len(all)-1],
		stallS:    stallSeconds(ends),
		n:         len(all),
		sortedAll: all,
	}
}

// eachChunk calls fn on every chunk-sized slice [lo, hi) of n items, perConn
// calls in flight on each connection.
func eachChunk(n, chunk, perConn int, clients []*server.Client, fn func(c *server.Client, lo, hi int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < perConn*len(clients); w++ {
		wg.Add(1)
		go func(c *server.Client) {
			defer wg.Done()
			for lo := range next {
				fn(c, lo, min(lo+chunk, n))
			}
		}(clients[w%len(clients)])
	}
	for lo := 0; lo < n; lo += chunk {
		next <- lo
	}
	close(next)
	wg.Wait()
}

// preload writes every key of the universe at version 1 with MPUT frames of
// 64, eight in flight per connection.
func preload(or *oracle, clients []*server.Client) {
	or.attempted.Add(uint64(len(or.keys)))
	eachChunk(len(or.keys), 64, 8, clients, func(c *server.Client, lo, hi int) {
		vals := make([]uint64, hi-lo)
		for j, k := range or.keys[lo:hi] {
			vals[j] = valueFor(k, 1)
		}
		if err := c.MPut(or.keys[lo:hi], vals); err != nil {
			or.errored.Add(uint64(hi - lo))
		}
	})
	or.preloaded()
}

// readback fetches every key of the universe with MGET frames of 256 and
// holds each against the last acknowledged write.
func readback(or *oracle, clients []*server.Client) {
	or.attempted.Add(uint64(len(or.keys)))
	eachChunk(len(or.keys), 256, 4, clients, func(c *server.Client, lo, hi int) {
		vals, found, err := c.MGet(or.keys[lo:hi])
		if err != nil {
			or.errored.Add(uint64(hi - lo))
			return
		}
		for j := range vals {
			or.checkReadback(int32(lo+j), vals[j], found[j])
		}
	})
}

// probe sends n frames of one kind, one at a time on an idle connection,
// and returns their round-trip times in ms, ascending: the unloaded service
// time a client sees for that kind.
func probe(or *oracle, c *server.Client, kind opKind, n int) []float64 {
	f := newFrame(1)
	idx := make([]int32, 1)
	lat := make([]float64, n)
	stride := max(1, len(or.keys)/n)
	for j := range lat {
		idx[0] = int32(j * stride % len(or.keys))
		start := time.Now()
		sendFrame(c, or, streamOp{kind: kind, idx: idx}, f)
		lat[j] = float64(time.Since(start)) / 1e6
	}
	sort.Float64s(lat)
	return lat
}
