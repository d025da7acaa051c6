package btree

import (
	"errors"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
	"github.com/pangolin-go/pangolin/structures/kvtest"
)

func TestNodeSizeMatchesPaper(t *testing.T) {
	// Table 3: btree object size 304 B, which internal nodes keep.
	if s := unsafe.Sizeof(inner{}); s != 304 {
		t.Fatalf("internal node size %d, want 304", s)
	}
	// A leaf is the count and 7 items, which fits the 192-B slot class
	// with its 16-B header.
	if s := unsafe.Sizeof(leaf{}); s != 120 {
		t.Fatalf("leaf size %d, want 120", s)
	}
	// A leaf is an internal node's prefix, so both share the items view.
	if off := unsafe.Offsetof(inner{}.leaf); off != 0 {
		t.Fatalf("internal node's items at +%d, want +0", off)
	}
}

// TestLeafLayoutSpace builds a 25,000-key random tree, 16 inserts a
// transaction (one served shard's share of a btree preload), and checks
// that every leaf holds only the leaf layout and that the tree reserves
// at most 3.2 bytes per byte of key/value pairs (4.34 when every node
// was 304 bytes).
func TestLeafLayoutSpace(t *testing.T) {
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 4
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: geo})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const keys, perTx = 25000, 16
	rng := rand.New(rand.NewSource(57))
	seen := make(map[uint64]bool, keys)
	for len(seen) < keys {
		err := p.Run(func(tx *pangolin.Tx) error {
			for j := 0; j < perTx && len(seen) < keys; j++ {
				k := rng.Uint64()
				if seen[k] {
					continue
				}
				seen[k] = true
				if err := tr.InsertTx(tx, k, k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := tr.Len(); n != keys {
		t.Fatalf("len %d, want %d", n, keys)
	}
	a, err := pangolin.GetFromPool[anchor](p, tr.Anchor())
	if err != nil {
		t.Fatal(err)
	}
	var leaves, leafItems, items int
	var walk func(oid pangolin.OID, h uint64)
	walk = func(oid pangolin.OID, h uint64) {
		size, err := p.ObjectSize(oid)
		if err != nil {
			t.Fatal(err)
		}
		if h == 0 {
			if size != uint64(unsafe.Sizeof(leaf{})) {
				t.Fatalf("leaf %#x is %d bytes, want %d", oid.Off, size, unsafe.Sizeof(leaf{}))
			}
			n, err := pangolin.GetFromPool[leaf](p, oid)
			if err != nil {
				t.Fatal(err)
			}
			leaves++
			leafItems += int(n.N)
			items += int(n.N)
			return
		}
		if size != uint64(unsafe.Sizeof(inner{})) {
			t.Fatalf("internal node %#x is %d bytes, want %d", oid.Off, size, unsafe.Sizeof(inner{}))
		}
		n, err := pangolin.GetFromPool[inner](p, oid)
		if err != nil {
			t.Fatal(err)
		}
		items += int(n.N)
		for i := 0; i <= int(n.N); i++ {
			walk(n.Children[i], h-1)
		}
	}
	walk(a.Root, a.Height)
	if items != keys {
		t.Fatalf("walk found %d items, want %d", items, keys)
	}
	amp := float64(p.LiveObjects().Bytes) / float64(16*keys)
	t.Logf("height %d, %d leaves, %.2f items a leaf, space amplification %.3f", a.Height, leaves, float64(leafItems)/float64(leaves), amp)
	if amp > 3.2 {
		t.Fatalf("space amplification %.3f, want at most 3.2", amp)
	}
}

// TestAttachRefusesOldAnchor: a tree written before leaves dropped their
// child array has a 24-byte anchor {Root, Count}; Attach refuses it.
func TestAttachRefusesOldAnchor(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var old pangolin.OID
	if err := p.Run(func(tx *pangolin.Tx) (err error) {
		old, _, err = tx.Alloc(24, typeNode)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(p, old); !errors.Is(err, ErrAnchorFormat) {
		t.Fatalf("Attach on a 24-byte anchor: %v, want ErrAnchorFormat", err)
	}
}

func TestConformance(t *testing.T) {
	kvtest.RunAll(t, kvtest.Harness{
		Make: func(p *pangolin.Pool) (kv.Map, error) { return New(p) },
		Attach: func(p *pangolin.Pool, a pangolin.OID) (kv.Map, error) {
			return Attach(p, a)
		},
	})
}

// TestDeepChurn drives the tree through many splits and merges with a
// model check, hitting the borrow-left, borrow-right, and merge paths.
func TestDeepChurn(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint64]uint64)
	// Grow to 3 levels.
	for k := uint64(0); k < 500; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		model[k] = k
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(600))
		if rng.Intn(2) == 0 {
			ok, err := tr.Remove(k)
			if err != nil {
				t.Fatalf("op %d remove %d: %v", i, k, err)
			}
			if _, want := model[k]; ok != want {
				t.Fatalf("op %d remove %d = %v want %v", i, k, ok, want)
			}
			delete(model, k)
		} else {
			if err := tr.Insert(k, uint64(i)); err != nil {
				t.Fatalf("op %d insert %d: %v", i, k, err)
			}
			model[k] = uint64(i)
		}
	}
	for k := uint64(0); k < 600; k++ {
		v, ok, err := tr.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		wantV, want := model[k]
		if ok != want || (ok && v != wantV) {
			t.Fatalf("key %d: (%d,%v) want (%d,%v)", k, v, ok, wantV, want)
		}
	}
	if n, _ := tr.Len(); n != uint64(len(model)) {
		t.Fatalf("len %d model %d", n, len(model))
	}
}

// TestDrainToEmpty shrinks the root through merges down to nothing.
func TestDrainToEmpty(t *testing.T) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for k := uint64(0); k < n; k++ {
		if err := tr.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < n; k++ {
		ok, err := tr.Remove(k)
		if err != nil || !ok {
			t.Fatalf("remove %d: (%v,%v)", k, ok, err)
		}
	}
	if cnt, _ := tr.Len(); cnt != 0 {
		t.Fatalf("len %d after drain", cnt)
	}
	// Reusable after drain.
	if err := tr.Insert(42, 42); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := tr.Lookup(42); !ok || v != 42 {
		t.Fatal("reuse after drain failed")
	}
}

func TestRangeOrdered(t *testing.T) {
	kvtest.RunRange(t, kvtest.Harness{
		Make: func(p *pangolin.Pool) (kv.Map, error) { return New(p) },
		Attach: func(p *pangolin.Pool, a pangolin.OID) (kv.Map, error) {
			return Attach(p, a)
		},
	}, true)
}
