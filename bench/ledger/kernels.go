package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/csum"
	"github.com/pangolin-go/pangolin/internal/nvm"
	"github.com/pangolin-go/pangolin/internal/parity"
	"github.com/pangolin-go/pangolin/internal/xor"
	"github.com/pangolin-go/pangolin/server"
	"github.com/pangolin-go/pangolin/structures/kv/registry"
)

// Microbenchmarks of single layers, timed from outside through their
// public functions. Each takes a few tens of milliseconds; none depends on
// the workload except structureBench (the workload's structure) and
// codecBench (the workload's frames).

var sink uint64 // keeps measured results alive

// timePer runs fn n times and returns ns per call.
func timePer(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// kernelBench measures the csum, parity, xor and nvm kernels.
func kernelBench(out map[string]float64) {
	rng := rand.New(rand.NewSource(1))
	const big = 64 << 10
	a, b, dst := make([]byte, big), make([]byte, big), make([]byte, big)
	rng.Read(a)
	rng.Read(b)

	ns := timePer(400, func(int) { sink += uint64(csum.Adler32(a)) })
	out["csum.adler32_gbps"] = big / ns
	sum := csum.Adler32(a)
	out["csum.update64_ns"] = timePer(200000, func(i int) {
		off := uint64(i%1000) * 64
		sink += uint64(csum.Update(sum, big, off, a[off:off+64], b[off:off+64]))
	})
	ns = timePer(400, func(int) { xor.Delta(dst, a, b) })
	out["xor.delta_gbps"] = big / ns

	geo := peelPoolConfig().Geometry
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	par := parity.New(dev, geo, 0)
	row := int(geo.RowSize())
	ns = timePer(200, func(i int) {
		par.Update(uint64(i)%geo.NumZones, 0, a[:min(big, row)])
		dev.Fence()
	})
	out["parity.update_gbps"] = float64(min(big, row)) / ns
	out["parity.update64_ns"] = timePer(100000, func(i int) {
		par.Update(uint64(i)%geo.NumZones, uint64(i%512)*64, b[:64])
		if i%64 == 63 {
			dev.Fence()
		}
	})
	// One parity row per zone: the paper's 1% at its 100-row geometry.
	out["parity.overhead_frac"] = float64(geo.RowSize()) / float64(geo.ZoneSize())

	const lines = 64
	out["nvm.persist_ns_per_line"] = timePer(20000, func(i int) {
		off := uint64(i%256) * lines * nvm.CacheLineSize
		dev.WriteAt(off, a[:lines*nvm.CacheLineSize])
		dev.Persist(off, lines*nvm.CacheLineSize)
	}) / lines
}

// coreBench measures the three transaction shapes of the paper's Fig 3:
// allocate a 64-byte object, overwrite one whole, overwrite a 4 KB one
// whole.
func coreBench(out map[string]float64) error {
	pool, err := pangolin.Create(peelPoolConfig())
	if err != nil {
		return err
	}
	defer pool.Close()
	const n = 2000
	oids := make([]pangolin.OID, 0, n)
	var failed error
	run := func(fn func(tx *pangolin.Tx) error) {
		if err := pool.Run(fn); err != nil && failed == nil {
			failed = err
		}
	}
	out["core.tx_alloc64_us"] = timePer(n, func(int) {
		run(func(tx *pangolin.Tx) error {
			oid, _, err := tx.Alloc(64, coreObjType)
			oids = append(oids, oid)
			return err
		})
	}) / 1e3
	overwrite := func(oid pangolin.OID, size uint64, i int) {
		run(func(tx *pangolin.Tx) error {
			b, err := tx.AddRange(oid, 0, size)
			if err == nil {
				for j := range b {
					b[j] = byte(i)
				}
			}
			return err
		})
	}
	out["core.tx_overwrite64_us"] = timePer(n, func(i int) { overwrite(oids[i%len(oids)], 64, i) }) / 1e3
	var bigs []pangolin.OID
	for i := 0; i < 64; i++ {
		run(func(tx *pangolin.Tx) error {
			oid, _, err := tx.Alloc(4096, coreObjType)
			bigs = append(bigs, oid)
			return err
		})
	}
	out["core.tx_overwrite4k_us"] = timePer(n, func(i int) { overwrite(bigs[i%len(bigs)], 4096, i) }) / 1e3
	return failed
}

// structureBench measures the named structure alone in one pool: insert,
// lookup and remove of n keys under the full system, and the insert again
// under the two libpmemobj baselines — the paper's Fig 5 shape, where MLPC
// stays within tens of percent of Pmemobj and about level with Pmemobj-R.
// n stays below the hashmap's first growth (2,049 entries): on the seed
// that growth fails under both undo-log baselines (README, known limits).
func structureBench(name string, seed int64, out map[string]float64) error {
	structure, err := registry.ByName(name)
	if err != nil {
		return err
	}
	const n = 2000
	keys := makeKeys(seed, n)
	insertNS := map[pangolin.Mode]float64{}
	for _, mode := range []pangolin.Mode{pangolin.ModePangolinMLPC, pangolin.ModePmemobj, pangolin.ModePmemobjR} {
		cfg := peelPoolConfig()
		cfg.Mode = mode
		pool, err := pangolin.Create(cfg)
		if err != nil {
			return err
		}
		m, err := structure.New(pool)
		if err != nil {
			pool.Close()
			return err
		}
		var failed error
		note := func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
		}
		insertNS[mode] = timePer(n, func(i int) { note(m.Insert(keys[i], uint64(i))) })
		if mode == pangolin.ModePangolinMLPC {
			out["structures.insert_us"] = insertNS[mode] / 1e3
			out["structures.lookup_us"] = timePer(n, func(i int) {
				v, ok, err := m.Lookup(keys[i])
				note(err)
				if !ok || v != uint64(i) {
					note(fmt.Errorf("%s lookup of key %d: got %d, %v", name, i, v, ok))
				}
			}) / 1e3
			out["structures.remove_us"] = timePer(n, func(i int) {
				ok, err := m.Remove(keys[i])
				note(err)
				if !ok {
					note(fmt.Errorf("%s remove of key %d: absent", name, i))
				}
			}) / 1e3
		}
		pool.Close()
		if failed != nil {
			return fmt.Errorf("%s under %v: %w", name, mode, failed)
		}
	}
	out["structures.mlpc_over_pmemobj"] = insertNS[pangolin.ModePangolinMLPC] / insertNS[pangolin.ModePmemobj]
	out["structures.mlpc_over_pmemobjr"] = insertNS[pangolin.ModePangolinMLPC] / insertNS[pangolin.ModePmemobjR]
	return nil
}

// codecBench measures the wire codec alone on the first frames of the
// workload's stream: encode and decode of the request and of a reply of
// the matching shape, in ns per individual operation.
func codecBench(sp *spec, seed int64, keys []uint64, frames int, out map[string]float64) error {
	gs := newGlobalStream(sp, seed)
	reqs := make([]server.Request, frames)
	replies := make([][]byte, frames)
	for i := range reqs {
		op := gs.next()
		ks := make([]uint64, len(op.idx))
		for j, ix := range op.idx {
			ks[j] = keys[ix]
		}
		switch {
		case len(ks) > 1 && op.kind == kGet:
			reqs[i], replies[i] = server.Request{Op: server.OpMGet, Keys: ks}, make([]byte, 9*len(ks))
		case len(ks) > 1 && op.kind == kPut:
			reqs[i], replies[i] = server.Request{Op: server.OpMPut, Keys: ks, Vals: ks}, make([]byte, len(ks))
		case len(ks) > 1:
			reqs[i], replies[i] = server.Request{Op: server.OpMDel, Keys: ks}, make([]byte, len(ks))
		case op.kind == kGet:
			reqs[i], replies[i] = server.Request{Op: server.OpGet, Key: ks[0]}, make([]byte, 8)
		case op.kind == kPut:
			reqs[i] = server.Request{Op: server.OpPut, Key: ks[0], Val: ks[0]}
		case op.kind == kDel:
			reqs[i] = server.Request{Op: server.OpDel, Key: ks[0]}
		default:
			reqs[i] = server.Request{Op: server.OpScan, Key: ks[0], Val: ^uint64(0), Limit: scanLimit}
			replies[i] = make([]byte, 9+16*scanLimit)
		}
	}
	var buf, rbuf []byte
	var failed error
	ns := timePer(frames, func(i int) {
		var err error
		if buf, err = server.EncodeRequestSeq(buf[:0], uint64(i), reqs[i]); err == nil {
			_, _, err = server.DecodeRequestSeq(buf)
		}
		if err == nil {
			rbuf = server.EncodeResponseSeq(rbuf[:0], uint64(i), server.StatusOK, replies[i])
			_, _, _, err = server.DecodeResponseSeq(rbuf)
		}
		if err != nil && failed == nil {
			failed = err
		}
	})
	out["server.codec_ns_per_op"] = ns / float64(sp.Batch)
	return failed
}
