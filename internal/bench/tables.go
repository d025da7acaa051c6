package bench

import (
	"fmt"
	"io"

	"github.com/pangolin-go/pangolin"
)

// Table2 prints the operation-mode matrix (paper Table 2).
func Table2(w io.Writer) {
	t := &Table{Header: []string{"mode", "micro-buffering", "meta/log replication", "parity", "checksums", "replica pool"}}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, m := range pangolin.Modes() {
		t.Add(m.String(), yn(m.MicroBuffered()), yn(m.ReplicateMeta()), yn(m.Parity()), yn(m.Checksums()), yn(m.ReplicaPool()))
	}
	fmt.Fprintf(w, "\nTable 2 — library operation modes\n")
	t.Print(w)
}

// Table3 reproduces Table 3: per-transaction average allocated and
// modified sizes (and object counts) for inserts and removals on each
// structure, measured from the engine's transaction accounting. Shape
// targets: allocation sizes track the node sizes (56/80/304/408/4136);
// modified sizes are several node-sized touches for the balanced trees.
// Two rows depart from the paper's node sizes. The hashmap's pairs are
// inline, not 40-byte entries, so an insert allocates only when it is the
// first write to a 1,008-byte segment and modifies about 32 bytes of it
// and the anchor. The btree's leaves are 120 bytes with no child array;
// only its internal nodes are 304, so its inserts allocate and modify
// mostly 120-byte leaves.
func Table3(w io.Writer, cfg Config) error {
	t := &Table{Header: []string{"structure", "op", "new B/tx (objs)", "mod B/tx (objs/tx)"}}
	for _, f := range factories {
		n := min(cfg.KVOps, f.opCap)
		pool, err := kvPool(f, pangolin.ModePangolinMLPC, n, pangolin.VerifyDefault)
		if err != nil {
			return err
		}
		m, err := f.make(pool, n)
		if err != nil {
			pool.Close()
			return err
		}
		keys := kvKeys(n)
		st := pool.Stats()
		st.ResetAccounting()
		for _, k := range keys {
			if err := m.Insert(k, k); err != nil {
				pool.Close()
				return err
			}
		}
		t.Add(f.name, "insert", avgObjs(st.TxAllocBytes.Load(), st.TxAllocObjs.Load(), st.TxCount.Load()),
			avgObjs(st.TxModBytes.Load(), st.TxObjects.Load(), st.TxCount.Load()))
		st.ResetAccounting()
		for _, k := range keys {
			if _, err := m.Remove(k); err != nil {
				pool.Close()
				return err
			}
		}
		t.Add(f.name, "remove", avgObjs(st.TxAllocBytes.Load(), st.TxAllocObjs.Load(), st.TxCount.Load()),
			avgObjs(st.TxModBytes.Load(), st.TxObjects.Load(), st.TxCount.Load()))
		pool.Close()
	}
	fmt.Fprintf(w, "\nTable 3 — data structure transaction sizes (avg per transaction, %d ops)\n", cfg.KVOps)
	t.Print(w)
	return nil
}

func avgObjs(bytes, objs, txs uint64) string {
	if txs == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f (%.2f)", float64(bytes)/float64(txs), float64(objs)/float64(txs))
}
