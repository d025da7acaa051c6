package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/btree"
	"github.com/pangolin-go/pangolin/structures/ctree"
	"github.com/pangolin-go/pangolin/structures/hashmap"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/rbtree"
	"github.com/pangolin-go/pangolin/structures/rtree"
	"github.com/pangolin-go/pangolin/structures/skiplist"
)

// kvFactory describes one of the six data-structure workloads (§4.5).
type kvFactory struct {
	name string
	// perObj estimates allocated bytes per insert, for pool sizing.
	perObj uint64
	// opCap bounds the operation count (rtree's 4 KB nodes make
	// paper-scale runs exceed laptop memory; see bench/ledger/README.md).
	opCap int
	make  func(p *pangolin.Pool, n int) (kv.Map, error)
}

// factories lists the paper's six structures.
var factories = []kvFactory{
	{"ctree", 128, 1 << 31, func(p *pangolin.Pool, n int) (kv.Map, error) { return ctree.New(p) }},
	{"rbtree", 128, 1 << 31, func(p *pangolin.Pool, n int) (kv.Map, error) { return rbtree.New(p) }},
	{"btree", 128, 1 << 31, func(p *pangolin.Pool, n int) (kv.Map, error) { return btree.New(p) }},
	{"skiplist", 448, 400_000, func(p *pangolin.Pool, n int) (kv.Map, error) { return skiplist.New(p) }},
	{"rtree", 12 * 1024, 50_000, func(p *pangolin.Pool, n int) (kv.Map, error) { return rtree.New(p) }},
	// Pairs live inline, 61 to a 1 KB segment; the table is pre-sized to
	// stay under its ¾-full growth point for all n keys, so a key costs
	// about 22 bytes of segment.
	{"hashmap", 32, 1 << 31, func(p *pangolin.Pool, n int) (kv.Map, error) {
		buckets := uint64(n)*4/3 + 64
		return hashmap.NewWithBuckets(p, buckets)
	}},
}

// kvPool builds a pool sized for n operations of factory f.
func kvPool(f kvFactory, mode pangolin.Mode, n int, policy pangolin.VerifyPolicy) (*pangolin.Pool, error) {
	need := f.perObj*uint64(n) + uint64(n)*16 // objects + slack
	return newPool(mode, geoFor(need), policy)
}

// kvKeys returns a deterministic shuffled key set.
func kvKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	rng := rand.New(rand.NewSource(12345))
	rng.Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// Fig5 reproduces Figure 5: insert and remove throughput for the six
// structures across modes. Shape targets: Pangolin ≈ Pmemobj except
// where transactions modify little of large objects (skiplist, rtree) and
// micro-buffer copying shows; Pangolin-MLP ≈ 95% of Pmemobj-R on average;
// MLPC costs 1.5–15% over MLP, worst for rtree.
func Fig5(w io.Writer, cfg Config) error {
	insert := &Table{Header: append([]string{"structure"}, modeNames()...)}
	remove := &Table{Header: append([]string{"structure"}, modeNames()...)}
	for _, f := range factories {
		n := min(cfg.KVOps, f.opCap)
		insRow := []string{f.name}
		remRow := []string{f.name}
		for _, mode := range pangolin.Modes() {
			ins, rem, err := fig5Cell(f, mode, n)
			if err != nil {
				return fmt.Errorf("fig5 %s %v: %w", f.name, mode, err)
			}
			insRow = append(insRow, ins)
			remRow = append(remRow, rem)
		}
		insert.Add(insRow...)
		remove.Add(remRow...)
	}
	fmt.Fprintf(w, "\nFigure 5 — key-value inserts (Kops/s), %d ops (rtree/skiplist capped)\n", cfg.KVOps)
	insert.Print(w)
	fmt.Fprintf(w, "\nFigure 5 — key-value removes (Kops/s)\n")
	remove.Print(w)
	return nil
}

func fig5Cell(f kvFactory, mode pangolin.Mode, n int) (string, string, error) {
	pool, err := kvPool(f, mode, n, pangolin.VerifyDefault)
	if err != nil {
		return "", "", err
	}
	defer pool.Close()
	m, err := f.make(pool, n)
	if err != nil {
		return "", "", err
	}
	keys := kvKeys(n)
	start := time.Now()
	for _, k := range keys {
		if err := m.Insert(k, k^0xDEAD); err != nil {
			return "", "", fmt.Errorf("insert %d: %w", k, err)
		}
	}
	insD := time.Since(start)
	start = time.Now()
	for _, k := range keys {
		ok, err := m.Remove(k)
		if err != nil {
			return "", "", fmt.Errorf("remove %d: %w", k, err)
		}
		if !ok {
			return "", "", fmt.Errorf("remove %d: key missing", k)
		}
	}
	remD := time.Since(start)
	return fmtKops(n, insD), fmtKops(n, remD), nil
}
