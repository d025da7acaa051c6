package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/internal/store/logstore"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
	"github.com/pangolin-go/pangolin/server"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

// The layer peel replays a prefix of the workload's op stream, one op in
// flight, at each depth of the stack in this process: through a loopback
// server, straight into the shard set, straight into four stores, straight
// into four structures, and as the bare transactions underneath. One op in
// flight makes the times unloaded service times and the counters exact.
// Op i's spans across depths form the chain server → shard → store →
// structures → core, and a layer's self time is its span minus its
// child's.

const peelShards = 4 // pglserve's default, which every workload uses

// peelLayers are the depths, outermost first.
var peelLayers = []string{"server", "shard", "store", "structures", "core"}

// depth is one level of the stack, driven synchronously.
type depth interface {
	get(k uint64) (uint64, bool, error)
	put(k, v uint64) error
	del(k uint64) (bool, error)
	// scan visits up to limit pairs with key >= lo and returns how many.
	scan(lo uint64, limit int) (int, error)
	// batch runs one multi-op frame of a single kind; vals is read for
	// puts and written for gets, found is written for gets and dels.
	batch(kind opKind, keys, vals []uint64, found []bool) error
	close()
}

// shardOf routes a key the way shard.Set does (TestShardRouting holds the
// two together).
func shardOf(k uint64) int { return int(mix64(k) % peelShards) }

func peelPoolConfig() pangolin.Config {
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 8 // pglserve's -zones default
	return pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: geo}
}

func peelShardOptions(sp *spec) shard.Options {
	return shard.Options{
		Structure:       sp.Structure,
		Backend:         sp.Backend,
		Pangolin:        peelPoolConfig(),
		LogSegmentBytes: sp.LogSegBytes,
	}
}

// ---- pieces the direct depths share ----

// getEach serves a multi-get frame one lookup at a time.
func getEach(get func(uint64) (uint64, bool, error), keys, vals []uint64, found []bool) error {
	for j, k := range keys {
		v, ok, err := get(k)
		if err != nil {
			return err
		}
		vals[j], found[j] = v, ok
	}
	return nil
}

// byShard refills where[s] with the positions of the keys shard s owns.
func byShard(where *[peelShards][]int, keys []uint64) {
	for s := range where {
		where[s] = where[s][:0]
	}
	for j, k := range keys {
		where[shardOf(k)] = append(where[shardOf(k)], j)
	}
}

// txPerShard runs fn on every key position, in one transaction per shard
// that owns any: the group-commit shape of a multi-op write frame.
func txPerShard(pools *[peelShards]*pangolin.Pool, where *[peelShards][]int, keys []uint64,
	fn func(tx *pangolin.Tx, s, j int) error) error {
	byShard(where, keys)
	for s, js := range where {
		if len(js) == 0 {
			continue
		}
		err := pools[s].Run(func(tx *pangolin.Tx) error {
			for _, j := range js {
				if err := fn(tx, s, j); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanEach visits up to limit pairs from lo on every shard. Merging the
// shards' pages is the shard layer's work and is absent here on purpose.
func scanEach[S interface {
	Scan(lo, hi uint64, fn func(k, v uint64) bool) error
}](shards []S, lo uint64, limit int) (int, error) {
	total := 0
	for _, sh := range shards {
		n := 0
		if err := sh.Scan(lo, math.MaxUint64, func(_, _ uint64) bool { n++; return n < limit }); err != nil {
			return total, err
		}
		total += n
	}
	return min(total, limit), nil
}

func closePools(pools *[peelShards]*pangolin.Pool) {
	for _, p := range pools {
		if p != nil {
			p.Close()
		}
	}
}

// ---- server depth: a sync server.Client against an in-process server ----

type serverDepth struct {
	set *shard.Set
	srv *server.Server
	c   *server.Client
}

func newServerDepth(sp *spec, dir string) (*serverDepth, error) {
	set, err := shard.Create(dir, peelShards, peelShardOptions(sp))
	if err != nil {
		return nil, err
	}
	srv := server.New(set)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		set.Abandon()
		return nil, err
	}
	go srv.Serve()
	c, err := server.Dial(context.Background(), srv.Addr().String())
	if err != nil {
		srv.Shutdown()
		set.Abandon()
		return nil, err
	}
	return &serverDepth{set, srv, c}, nil
}

func (d *serverDepth) get(k uint64) (uint64, bool, error) { return d.c.Get(k) }
func (d *serverDepth) put(k, v uint64) error              { return d.c.Put(k, v) }
func (d *serverDepth) del(k uint64) (bool, error)         { return d.c.Del(k) }
func (d *serverDepth) scan(lo uint64, limit int) (int, error) {
	pairs, _, _, err := d.c.Scan(lo, math.MaxUint64, limit, 0)
	return len(pairs), err
}
func (d *serverDepth) batch(kind opKind, keys, vals []uint64, found []bool) error {
	switch kind {
	case kGet:
		vs, fs, err := d.c.MGet(keys)
		copy(vals, vs)
		copy(found, fs)
		return err
	case kPut:
		return d.c.MPut(keys, vals)
	default:
		fs, err := d.c.MDel(keys)
		copy(found, fs)
		return err
	}
}
func (d *serverDepth) close() {
	d.c.Close()
	d.srv.Shutdown()
	d.set.Abandon()
}

// ---- shard depth: shard.Set's own API ----

type shardDepth struct {
	set *shard.Set
	ops []shard.BatchOp
}

func newShardDepth(sp *spec, dir string) (*shardDepth, error) {
	set, err := shard.Create(dir, peelShards, peelShardOptions(sp))
	if err != nil {
		return nil, err
	}
	return &shardDepth{set: set}, nil
}

func (d *shardDepth) get(k uint64) (uint64, bool, error) { return d.set.Get(k) }
func (d *shardDepth) put(k, v uint64) error              { return d.set.Put(k, v) }
func (d *shardDepth) del(k uint64) (bool, error)         { return d.set.Del(k) }
func (d *shardDepth) scan(lo uint64, limit int) (int, error) {
	pairs, _, _, err := d.set.Scan(lo, math.MaxUint64, limit)
	return len(pairs), err
}
func (d *shardDepth) batch(kind opKind, keys, vals []uint64, found []bool) error {
	bk := shard.BatchGet
	switch kind {
	case kPut:
		bk = shard.BatchPut
	case kDel:
		bk = shard.BatchDel
	}
	d.ops = d.ops[:0]
	for j, k := range keys {
		d.ops = append(d.ops, shard.BatchOp{Kind: bk, K: k, V: vals[j]})
	}
	for j, r := range d.set.Batch(d.ops) {
		if r.Err != nil {
			return r.Err
		}
		if kind == kGet {
			vals[j] = r.V
		}
		found[j] = r.OK
	}
	return nil
}
func (d *shardDepth) close() { d.set.Abandon() }

// ---- store depth: four stores constructed directly ----

type storeDepth struct {
	stores [peelShards]store.Store
	views  [peelShards]store.View
	pools  *pangolin.PoolSet // nil under logstore
	one    [1]store.Op
	group  []store.Op
	where  [peelShards][]int
}

func newStoreDepth(sp *spec, dir string) (*storeDepth, error) {
	d := &storeDepth{}
	structure, err := registry.ByName(sp.Structure)
	if err != nil {
		return nil, err
	}
	cfg := peelPoolConfig()
	if sp.Backend == store.BackendPangolin {
		idx := make([]int, peelShards)
		for i := range idx {
			idx[i] = i
		}
		if d.pools, err = pangolin.NewPoolSetShards(dir, peelShards, idx, cfg); err != nil {
			return nil, err
		}
	}
	for i := range d.stores {
		if d.pools != nil {
			d.stores[i], err = pangolinstore.Create(d.pools, i, structure, cfg.Scrub)
		} else {
			d.stores[i], err = logstore.Create(logstore.ShardDir(dir, i),
				logstore.Options{Structure: sp.Structure, Index: i, Count: peelShards, SegmentBytes: sp.LogSegBytes})
		}
		if err == nil {
			d.views[i], err = d.stores[i].(store.ReadViewer).ReadView()
		}
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *storeDepth) get(k uint64) (uint64, bool, error) { return d.views[shardOf(k)].Get(k) }
func (d *storeDepth) apply1(kind uint8, k, v uint64) (store.Result, error) {
	d.one[0] = store.Op{Kind: kind, K: k, V: v}
	res, err := d.stores[shardOf(k)].Apply(d.one[:])
	if err != nil {
		return store.Result{}, err
	}
	return res[0], nil
}
func (d *storeDepth) put(k, v uint64) error {
	_, err := d.apply1(store.OpPut, k, v)
	return err
}
func (d *storeDepth) del(k uint64) (bool, error) {
	r, err := d.apply1(store.OpDel, k, 0)
	return r.OK, err
}
func (d *storeDepth) scan(lo uint64, limit int) (int, error) {
	return scanEach(d.views[:], lo, limit)
}
func (d *storeDepth) batch(kind opKind, keys, vals []uint64, found []bool) error {
	if kind == kGet {
		return getEach(d.get, keys, vals, found)
	}
	sk := store.OpPut
	if kind == kDel {
		sk = store.OpDel
	}
	byShard(&d.where, keys)
	for s, js := range d.where {
		if len(js) == 0 {
			continue
		}
		d.group = d.group[:0]
		for _, j := range js {
			d.group = append(d.group, store.Op{Kind: sk, K: keys[j], V: vals[j]})
		}
		res, err := d.stores[s].Apply(d.group)
		if err != nil {
			return err
		}
		for n, j := range js {
			found[j] = res[n].OK
		}
	}
	return nil
}
func (d *storeDepth) close() {
	for _, st := range d.stores {
		if st != nil {
			st.Close()
		}
	}
}

// counters sums the engine and device counters of the four pools; zero
// under logstore, which has neither.
type counters struct {
	logged, mod, alloc, objs, txs, verified uint64
	flushes, fences, flushedB, writtenB     uint64
	mbufHigh                                int64
}

func (d *storeDepth) counters() counters {
	var c counters
	if d.pools == nil {
		return c
	}
	for i := 0; i < peelShards; i++ {
		p := d.pools.Pool(i)
		st, dev := p.Stats(), p.Device().Stats()
		c.logged += st.LoggedBytes.Load()
		c.mod += st.TxModBytes.Load()
		c.alloc += st.TxAllocBytes.Load()
		c.objs += st.TxObjects.Load()
		c.txs += st.TxCount.Load()
		c.verified += st.VerifiedBytes.Load()
		c.flushes += dev.Flushes.Load()
		c.fences += dev.Fences.Load()
		c.flushedB += dev.BytesFlushed.Load()
		c.writtenB += dev.BytesWritten.Load()
		c.mbufHigh = max(c.mbufHigh, st.MBufHighWater.Load())
	}
	return c
}

// ---- structures depth: four kv.Maps in four pools ----

type structDepth struct {
	pools [peelShards]*pangolin.Pool
	maps  [peelShards]kv.Map // owner instances: mutations
	reads [peelShards]kv.Map // read-view instances: lookups and scans
	where [peelShards][]int
}

func newStructDepth(sp *spec) (*structDepth, error) {
	structure, err := registry.ByName(sp.Structure)
	if err != nil {
		return nil, err
	}
	d := &structDepth{}
	for i := range d.pools {
		if d.pools[i], err = pangolin.Create(peelPoolConfig()); err != nil {
			d.close()
			return nil, err
		}
		if d.maps[i], err = structure.New(d.pools[i]); err == nil {
			d.reads[i], err = structure.Attach(d.pools[i].ReadView(), d.maps[i].Anchor())
		}
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *structDepth) get(k uint64) (uint64, bool, error) { return d.reads[shardOf(k)].Lookup(k) }
func (d *structDepth) put(k, v uint64) error              { return d.maps[shardOf(k)].Insert(k, v) }
func (d *structDepth) del(k uint64) (bool, error)         { return d.maps[shardOf(k)].Remove(k) }
func (d *structDepth) scan(lo uint64, limit int) (int, error) {
	return scanEach(d.reads[:], lo, limit)
}
func (d *structDepth) batch(kind opKind, keys, vals []uint64, found []bool) error {
	if kind == kGet {
		return getEach(d.get, keys, vals, found)
	}
	return txPerShard(&d.pools, &d.where, keys, func(tx *pangolin.Tx, s, j int) (err error) {
		if kind == kPut {
			found[j] = true
			return d.maps[s].InsertTx(tx, keys[j], vals[j])
		}
		found[j], err = d.maps[s].RemoveTx(tx, keys[j])
		return err
	})
}
func (d *structDepth) close() { closePools(&d.pools) }

// ---- core depth: the least a structure could ask of the Tx API ----
//
// Every key is one 64-byte object and every shard has one 64-byte anchor.
// An insert allocates the object and updates the anchor; an overwrite
// declares and rewrites 8 bytes of the object; a remove frees it and updates the
// anchor; a lookup is one verified read. What a real structure spends
// above this floor is its self time.

const coreObjSize, coreObjType = 64, 0x6c

type coreDepth struct {
	pools   [peelShards]*pangolin.Pool
	reads   [peelShards]*pangolin.Pool
	anchors [peelShards]pangolin.OID
	objs    map[uint64]pangolin.OID
	order   []uint64 // keys in insertion order, for scans
	where   [peelShards][]int
}

func newCoreDepth() (*coreDepth, error) {
	d := &coreDepth{objs: make(map[uint64]pangolin.OID)}
	for i := range d.pools {
		p, err := pangolin.Create(peelPoolConfig())
		if err != nil {
			d.close()
			return nil, err
		}
		d.pools[i], d.reads[i] = p, p.ReadView()
		if d.anchors[i], err = p.RootOID(coreObjSize, coreObjType); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *coreDepth) bump(tx *pangolin.Tx, s int, by uint64) error {
	a, err := tx.AddRange(d.anchors[s], 0, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)+by)
	return nil
}

func (d *coreDepth) putTx(tx *pangolin.Tx, s int, k, v uint64) error {
	if oid, ok := d.objs[k]; ok {
		b, err := tx.AddRange(oid, 8, 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(b[8:], v)
		return nil
	}
	oid, b, err := tx.Alloc(coreObjSize, coreObjType)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, k)
	binary.LittleEndian.PutUint64(b[8:], v)
	d.objs[k] = oid
	d.order = append(d.order, k)
	return d.bump(tx, s, 1)
}

func (d *coreDepth) delTx(tx *pangolin.Tx, s int, k uint64) (bool, error) {
	oid, ok := d.objs[k]
	if !ok {
		return false, nil
	}
	if err := tx.Free(oid); err != nil {
		return false, err
	}
	delete(d.objs, k)
	return true, d.bump(tx, s, ^uint64(0))
}

func (d *coreDepth) get(k uint64) (uint64, bool, error) {
	oid, ok := d.objs[k]
	if !ok {
		return 0, false, nil
	}
	b, err := d.reads[shardOf(k)].Get(oid)
	if err != nil {
		return 0, false, err
	}
	return binary.LittleEndian.Uint64(b[8:]), true, nil
}
func (d *coreDepth) put(k, v uint64) error {
	s := shardOf(k)
	return d.pools[s].Run(func(tx *pangolin.Tx) error { return d.putTx(tx, s, k, v) })
}
func (d *coreDepth) del(k uint64) (present bool, err error) {
	s := shardOf(k)
	err = d.pools[s].Run(func(tx *pangolin.Tx) error {
		present, err = d.delTx(tx, s, k)
		return err
	})
	return present, err
}
func (d *coreDepth) scan(lo uint64, limit int) (int, error) {
	// There is no index at this depth: read limit live objects, starting
	// from a position derived from lo, which is the verified-read work a
	// scan page costs.
	n := 0
	for j := 0; j < len(d.order) && n < limit; j++ {
		k := d.order[(int(lo%uint64(len(d.order)))+j)%len(d.order)]
		if _, ok, err := d.get(k); err != nil {
			return n, err
		} else if ok {
			n++
		}
	}
	return n, nil
}
func (d *coreDepth) batch(kind opKind, keys, vals []uint64, found []bool) error {
	if kind == kGet {
		return getEach(d.get, keys, vals, found)
	}
	return txPerShard(&d.pools, &d.where, keys, func(tx *pangolin.Tx, s, j int) (err error) {
		if kind == kPut {
			found[j] = true
			return d.putTx(tx, s, keys[j], vals[j])
		}
		found[j], err = d.delTx(tx, s, keys[j])
		return err
	})
}
func (d *coreDepth) close() { closePools(&d.pools) }

// ---- replay ----

// seqModel is the exact model of a sequential replay: every reply has one
// right answer.
type seqModel struct {
	keys    []uint64
	ver     []uint32
	present []bool
	wrong   int
}

func newSeqModel(keys []uint64, preloaded bool) *seqModel {
	m := &seqModel{keys: keys, ver: make([]uint32, len(keys)), present: make([]bool, len(keys))}
	if preloaded {
		for i := range keys {
			m.ver[i], m.present[i] = 1, true
		}
	}
	return m
}

// load writes the preload through the depth's own batch path.
func load(d depth, keys []uint64) error {
	const chunk = 64
	vals := make([]uint64, chunk)
	found := make([]bool, chunk)
	for lo := 0; lo < len(keys); lo += chunk {
		ks := keys[lo:min(lo+chunk, len(keys))]
		for j, k := range ks {
			vals[j] = valueFor(k, 1)
		}
		if err := d.batch(kPut, ks, vals[:len(ks)], found[:len(ks)]); err != nil {
			return err
		}
	}
	return nil
}

// replay runs the first n frames of the workload's global op stream through
// d, one at a time, checking every reply, and returns each frame's duration
// in ns.
func replay(d depth, sp *spec, seed int64, m *seqModel, n int) ([]int64, []opKind, error) {
	gs := newGlobalStream(sp, seed)
	durs := make([]int64, n)
	kinds := make([]opKind, n)
	keys := make([]uint64, sp.Batch)
	vals := make([]uint64, sp.Batch)
	found := make([]bool, sp.Batch)
	for i := 0; i < n; i++ {
		op := gs.next()
		kinds[i] = op.kind
		for j, ix := range op.idx {
			keys[j] = m.keys[ix]
			if op.kind == kPut {
				vals[j] = valueFor(keys[j], m.ver[ix]+1)
			}
		}
		var err error
		start := time.Now()
		switch {
		case len(op.idx) > 1:
			err = d.batch(op.kind, keys, vals, found)
		case op.kind == kGet:
			vals[0], found[0], err = d.get(keys[0])
		case op.kind == kPut:
			err = d.put(keys[0], vals[0])
		case op.kind == kDel:
			found[0], err = d.del(keys[0])
		case op.kind == kScan:
			var got int
			got, err = d.scan(keys[0], scanLimit)
			if got > scanLimit {
				m.wrong++
			}
		}
		durs[i] = int64(time.Since(start))
		if err != nil {
			return nil, nil, fmt.Errorf("op %d (%v): %w", i, op.kind, err)
		}
		for j, ix := range op.idx {
			switch op.kind {
			case kGet:
				if found[j] != m.present[ix] || (found[j] && vals[j] != valueFor(keys[j], m.ver[ix])) {
					m.wrong++
				}
			case kPut:
				m.ver[ix]++
				m.present[ix] = true
			case kDel:
				if found[j] != m.present[ix] {
					m.wrong++
				}
				m.ver[ix]++
				m.present[ix] = false
			}
		}
	}
	return durs, kinds, nil
}

// peelResult is what the peel measured.
type peelResult struct {
	metrics map[string]float64
	spans   []span
	ops     int // individual operations replayed per depth
	wrong   int
	// meanUS[layer][kind] is the mean frame time of that kind at that
	// depth, for the per-kind breakdown in the report.
	meanUS map[string]map[string]float64
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int64
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// peel runs the replay at every depth the workload's backend has and the
// store-depth probes, and derives the per-layer metrics.
func peel(sp *spec, seed int64, keys []uint64, frames int, workDir string) (*peelResult, error) {
	res := &peelResult{metrics: map[string]float64{}, meanUS: map[string]map[string]float64{}}
	layers := peelLayers
	durs := map[string][]int64{}
	var kinds []opKind
	for li, layer := range layers {
		var d depth
		var err error
		dir := filepath.Join(workDir, "peel-"+layer)
		switch layer {
		case "server":
			d, err = newServerDepth(sp, dir)
		case "shard":
			d, err = newShardDepth(sp, dir)
		case "store":
			d, err = newStoreDepth(sp, dir)
		case "structures":
			d, err = newStructDepth(sp)
		case "core":
			d, err = newCoreDepth()
		}
		if err != nil {
			return nil, fmt.Errorf("peel %s: %w", layer, err)
		}
		m := newSeqModel(keys, sp.Preload > 0)
		if sp.Preload > 0 {
			if err := load(d, keys); err != nil {
				d.close()
				return nil, fmt.Errorf("peel %s preload: %w", layer, err)
			}
		}
		var c0 counters
		sd, _ := d.(*storeDepth)
		if sd != nil {
			c0 = sd.counters()
		}
		durs[layer], kinds, err = replay(d, sp, seed, m, frames)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("peel %s: %w", layer, err)
		}
		if sd != nil {
			c1 := sd.counters()
			res.exactCounts(c0, c1, frames*sp.Batch)
			if err := res.storeProbes(sd, m); err != nil {
				d.close()
				return nil, fmt.Errorf("peel store probes: %w", err)
			}
		}
		d.close()
		res.wrong += m.wrong
		parent := ""
		if li > 0 {
			parent = layers[li-1]
		}
		var at int64
		byKind := map[string][]int64{}
		for i, dur := range durs[layer] {
			res.spans = append(res.spans, span{OpID: int64(i), Layer: layer, Name: kinds[i].String(),
				Start: at, End: at + dur, Parent: parent})
			at += dur
			byKind[kinds[i].String()] = append(byKind[kinds[i].String()], dur)
		}
		res.meanUS[layer] = map[string]float64{}
		for k, ds := range byKind {
			res.meanUS[layer][k] = mean(ds) / 1e3
		}
	}
	res.ops = frames * sp.Batch
	rt := func(layer string) float64 { return mean(durs[layer]) / 1e3 }
	// A layer's self time is its span minus its child's, op by op; the
	// mean of the differences is the difference of the means.
	res.metrics["server.rt_us"] = rt("server")
	res.metrics["server.self_us"] = rt("server") - rt("shard")
	res.metrics["shard.rt_us"] = rt("shard")
	res.metrics["shard.self_us"] = rt("shard") - rt("store")
	res.metrics["store.self_us"] = rt("store") - rt("structures")
	res.metrics["structures.self_us"] = rt("structures") - rt("core")
	res.metrics["core.rt_us"] = rt("core")
	if sp.Backend == store.BackendLog {
		// Nothing lies beneath a log shard: the chain ends at the store.
		// The structures and core depths still replay the frames (on the
		// default hashmap) as an off-path reference a log_batch run must
		// not depend on.
		res.metrics["store.self_us"] = rt("store")
	}
	return res, nil
}

// exactCounts turns the store-depth counter deltas into per-op counts.
// They are deterministic: one goroutine, one op at a time, no clocks.
func (r *peelResult) exactCounts(a, b counters, ops int) {
	per := func(x, y uint64) float64 { return float64(y-x) / float64(ops) }
	r.metrics["core.logged_bytes_per_op"] = per(a.logged, b.logged)
	r.metrics["core.mod_bytes_per_op"] = per(a.mod, b.mod)
	r.metrics["core.alloc_bytes_per_op"] = per(a.alloc, b.alloc)
	r.metrics["core.objs_per_tx"] = 0
	if txs := b.txs - a.txs; txs > 0 {
		r.metrics["core.objs_per_tx"] = float64(b.objs-a.objs) / float64(txs)
	}
	r.metrics["nvm.flushes_per_op"] = per(a.flushes, b.flushes)
	r.metrics["nvm.fences_per_op"] = per(a.fences, b.fences)
	r.metrics["nvm.bytes_flushed_per_op"] = per(a.flushedB, b.flushedB)
	r.metrics["nvm.bytes_written_per_op"] = per(a.writtenB, b.writtenB)
	r.metrics["core.mbuf_highwater_kb"] = float64(b.mbufHigh) / 1024
}

// storeProbes times fixed single-kind sequences on the store depth after
// the replay: the fixed and marginal cost of a commit, a view lookup and a
// 64-pair scan page, and the bytes a lookup verifies.
func (r *peelResult) storeProbes(d *storeDepth, m *seqModel) error {
	const n = 1024
	live := make([]int, 0, n)
	for i := 0; i < len(m.keys) && len(live) < n; i++ {
		if m.present[i] {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("no live keys after the replay")
	}
	bump := func(i int) uint64 {
		m.ver[i]++
		return valueFor(m.keys[i], m.ver[i])
	}
	// Fixed cost: one overwrite per commit.
	start := time.Now()
	for _, i := range live {
		if err := d.put(m.keys[i], bump(i)); err != nil {
			return err
		}
	}
	r.metrics["store.apply1_us"] = float64(time.Since(start)) / float64(len(live)) / 1e3
	// Marginal cost: the same overwrites, up to 64 per commit per shard.
	var batches [peelShards][]store.Op
	applied := 0
	start = time.Now()
	flush := func(s int) error {
		if len(batches[s]) == 0 {
			return nil
		}
		_, err := d.stores[s].Apply(batches[s])
		applied += len(batches[s])
		batches[s] = batches[s][:0]
		return err
	}
	for _, i := range live {
		s := shardOf(m.keys[i])
		batches[s] = append(batches[s], store.Op{Kind: store.OpPut, K: m.keys[i], V: bump(i)})
		if len(batches[s]) == 64 {
			if err := flush(s); err != nil {
				return err
			}
		}
	}
	for s := range batches {
		if err := flush(s); err != nil {
			return err
		}
	}
	r.metrics["store.apply64_us_per_op"] = float64(time.Since(start)) / float64(applied) / 1e3
	// Lookups through the read view, and what they verify.
	v0 := d.counters().verified
	start = time.Now()
	for _, i := range live {
		v, ok, err := d.get(m.keys[i])
		if err != nil {
			return err
		}
		if !ok || v != valueFor(m.keys[i], m.ver[i]) {
			m.wrong++
		}
	}
	r.metrics["store.view_get_us"] = float64(time.Since(start)) / float64(len(live)) / 1e3
	r.metrics["core.verified_bytes_per_get"] = float64(d.counters().verified-v0) / float64(len(live))
	scans := len(live) / 8
	start = time.Now()
	for _, i := range live[:scans] {
		if _, err := d.scan(m.keys[i], scanLimit); err != nil {
			return err
		}
	}
	r.metrics["store.scan64_us"] = float64(time.Since(start)) / float64(scans) / 1e3
	return nil
}
