// Package kvtest is the shared conformance suite for the persistent
// key-value structures: basic semantics, model-based random testing
// against a volatile map, crash-recovery equivalence, and fault-injection
// survival. Each structure's tests invoke RunAll with its harness.
package kvtest

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
)

// Harness adapts one data structure to the suite.
type Harness struct {
	// Make creates a fresh structure in the pool.
	Make func(p *pangolin.Pool) (kv.Map, error)
	// Attach reconnects to an existing structure after reopen.
	Attach func(p *pangolin.Pool, anchor pangolin.OID) (kv.Map, error)
	// Ordered declares that Scan visits keys ascending (registry's
	// Ordered flag); the scan suites assert order only when set.
	Ordered bool
}

// testGeometry sizes pools for the large-object structures (rtree nodes
// are 4 KB; the default two-zone pool is too small).
func testGeometry() pangolin.Geometry {
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 12
	return geo
}

func newPool(t *testing.T, mode pangolin.Mode) *pangolin.Pool {
	t.Helper()
	p, err := pangolin.Create(pangolin.Config{Mode: mode, Geometry: testGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// quiet fails t unless every line p stored, on its device and any
// replica, is flushed and fenced: a served shard's untracked device is
// saved between calls as its crash image, so every call must leave this.
func quiet(t *testing.T, p *pangolin.Pool, when string, args ...any) {
	t.Helper()
	for _, d := range []*pangolin.Device{p.Device(), p.ReplicaDevice()} {
		if d != nil && d.DirtyLines() != 0 {
			t.Fatalf("%s: %d dirty lines", fmt.Sprintf(when, args...), d.DirtyLines())
		}
	}
}

// clean reports whether a scrub of a pool no fault was injected into
// found nothing to fix: no object left corrupt or restored, and in the
// parity modes no parity column recomputed — a stale column means a
// commit or a recovery skipped a parity fold, which the scrub would
// otherwise paper over silently.
func clean(p *pangolin.Pool, rep pangolin.ScrubReport) bool {
	if rep.Unrecovered != 0 || rep.Repaired != 0 {
		return false
	}
	return !p.Mode().Parity() || rep.ParityFixes == 0
}

// quietMap is a Map whose single-op commits each check that p is quiet.
type quietMap struct {
	kv.Map
	t *testing.T
	p *pangolin.Pool
}

func (m quietMap) Insert(k, v uint64) error {
	defer quiet(m.t, m.p, "after Insert(%d)", k)
	return m.Map.Insert(k, v)
}

func (m quietMap) Remove(k uint64) (bool, error) {
	defer quiet(m.t, m.p, "after Remove(%d)", k)
	return m.Map.Remove(k)
}

// newMap makes the structure in p and returns it as a quietMap.
func (h Harness) newMap(t *testing.T, p *pangolin.Pool) kv.Map {
	t.Helper()
	m, err := h.Make(p)
	if err != nil {
		t.Fatal(err)
	}
	quiet(t, p, "after Make")
	return quietMap{Map: m, t: t, p: p}
}

// RunAll runs the full conformance suite.
func RunAll(t *testing.T, h Harness) {
	t.Run("Basic", func(t *testing.T) { testBasic(t, h) })
	t.Run("UpdateInPlace", func(t *testing.T) { testUpdate(t, h) })
	t.Run("RemoveSemantics", func(t *testing.T) { testRemove(t, h) })
	t.Run("AscendingKeys", func(t *testing.T) { testSequence(t, h, ascending(400)) })
	t.Run("DescendingKeys", func(t *testing.T) { testSequence(t, h, descending(400)) })
	t.Run("Model", func(t *testing.T) { testModel(t, h, pangolin.ModePangolinMLPC, 1) })
	t.Run("ModelPmemobj", func(t *testing.T) { testModel(t, h, pangolin.ModePmemobj, 2) })
	t.Run("ReopenEquivalence", func(t *testing.T) { testReopen(t, h) })
	t.Run("SurvivesMediaError", func(t *testing.T) { testMediaError(t, h) })
	t.Run("SurvivesScribbleViaScrub", func(t *testing.T) { testScribble(t, h) })
}

func testBasic(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m := h.newMap(t, p)
	if _, ok, _ := m.Lookup(1); ok {
		t.Fatal("empty map contains key")
	}
	for k := uint64(1); k <= 50; k++ {
		if err := m.Insert(k, k*100); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for k := uint64(1); k <= 50; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != k*100 {
			t.Fatalf("lookup %d = (%d,%v)", k, v, ok)
		}
	}
	if _, ok, _ := m.Lookup(9999); ok {
		t.Fatal("phantom key present")
	}
}

func testUpdate(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m := h.newMap(t, p)
	if err := m.Insert(7, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(7, 2); err != nil {
		t.Fatal(err)
	}
	v, ok, err := m.Lookup(7)
	if err != nil || !ok || v != 2 {
		t.Fatalf("after update: (%d,%v,%v)", v, ok, err)
	}
}

func testRemove(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m := h.newMap(t, p)
	for k := uint64(0); k < 30; k++ {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Remove a missing key.
	if ok, err := m.Remove(1000); err != nil || ok {
		t.Fatalf("remove missing = (%v,%v)", ok, err)
	}
	// Remove every other key.
	for k := uint64(0); k < 30; k += 2 {
		ok, err := m.Remove(k)
		if err != nil || !ok {
			t.Fatalf("remove %d = (%v,%v)", k, ok, err)
		}
	}
	for k := uint64(0); k < 30; k++ {
		_, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := k%2 == 1; ok != want {
			t.Fatalf("key %d present=%v want %v", k, ok, want)
		}
	}
	// Double remove.
	if ok, _ := m.Remove(0); ok {
		t.Fatal("double remove succeeded")
	}
	// Remove all remaining; map must empty cleanly.
	for k := uint64(1); k < 30; k += 2 {
		if ok, err := m.Remove(k); err != nil || !ok {
			t.Fatalf("drain remove %d: (%v,%v)", k, ok, err)
		}
	}
	if _, ok, _ := m.Lookup(1); ok {
		t.Fatal("map not empty after drain")
	}
	// And refill after emptying.
	if err := m.Insert(5, 55); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := m.Lookup(5); !ok || v != 55 {
		t.Fatal("refill after drain failed")
	}
}

func ascending(n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = uint64(i)
	}
	return ks
}

func descending(n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = uint64(n - i)
	}
	return ks
}

func testSequence(t *testing.T, h Harness, keys []uint64) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m := h.newMap(t, p)
	for _, k := range keys {
		if err := m.Insert(k, k^0xFFFF); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for _, k := range keys {
		v, ok, err := m.Lookup(k)
		if err != nil || !ok || v != k^0xFFFF {
			t.Fatalf("lookup %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
}

// testModel runs random operations mirrored against a volatile map; the
// persistent structure must agree at every step.
func testModel(t *testing.T, h Harness, mode pangolin.Mode, seed int64) {
	p := newPool(t, mode)
	m := h.newMap(t, p)
	rng := rand.New(rand.NewSource(seed))
	model := make(map[uint64]uint64)
	const ops = 1500
	const keySpace = 300
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert
			v := rng.Uint64()
			if err := m.Insert(k, v); err != nil {
				t.Fatalf("op %d insert %d: %v", i, k, err)
			}
			model[k] = v
		case 6, 7: // remove
			ok, err := m.Remove(k)
			if err != nil {
				t.Fatalf("op %d remove %d: %v", i, k, err)
			}
			if _, want := model[k]; ok != want {
				t.Fatalf("op %d remove %d = %v, model %v", i, k, ok, want)
			}
			delete(model, k)
		default: // lookup
			v, ok, err := m.Lookup(k)
			if err != nil {
				t.Fatalf("op %d lookup %d: %v", i, k, err)
			}
			wantV, want := model[k]
			if ok != want || (ok && v != wantV) {
				t.Fatalf("op %d lookup %d = (%d,%v), model (%d,%v)", i, k, v, ok, wantV, want)
			}
		}
	}
	// Final sweep.
	for k := uint64(0); k < keySpace; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		wantV, want := model[k]
		if ok != want || (ok && v != wantV) {
			t.Fatalf("final lookup %d = (%d,%v), model (%d,%v)", k, v, ok, wantV, want)
		}
	}
}

// testReopen crashes the pool and verifies the structure's contents are
// intact through recovery and Attach.
func testReopen(t *testing.T, h Harness) {
	p, err := pangolin.Create(pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: testGeometry()})
	if err != nil {
		t.Fatal(err)
	}
	m := h.newMap(t, p)
	model := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		k := uint64(rng.Intn(150))
		if rng.Intn(4) == 0 {
			if _, err := m.Remove(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		} else {
			v := rng.Uint64()
			if err := m.Insert(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		}
	}
	anchor := m.Anchor()
	crashed := p.Device().CrashCopy(pangolin.CrashStrict, 99)
	p.Close()
	p2, err := pangolin.OpenDevice(crashed, pangolin.Config{Mode: pangolin.ModePangolinMLPC}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	m2, err := h.Attach(p2, anchor)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 150; k++ {
		v, ok, err := m2.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %d after reopen: %v", k, err)
		}
		wantV, want := model[k]
		if ok != want || (ok && v != wantV) {
			t.Fatalf("key %d after reopen: (%d,%v), model (%d,%v)", k, v, ok, wantV, want)
		}
	}
}

// testMediaError poisons a page under a live node; the structure must keep
// answering correctly through online recovery.
func testMediaError(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m := h.newMap(t, p)
	for k := uint64(0); k < 100; k++ {
		if err := m.Insert(k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	// Poison the page holding the anchor's neighbourhood: some node
	// lives there.
	p.InjectMediaError(m.Anchor().Off)
	for k := uint64(0); k < 100; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %d during media error: %v", k, err)
		}
		if !ok || v != k+1000 {
			t.Fatalf("lookup %d = (%d,%v) after recovery", k, v, ok)
		}
	}
}

// testScribble corrupts a node via a simulated software bug and verifies a
// scrub pass restores the structure.
func testScribble(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m := h.newMap(t, p)
	for k := uint64(0); k < 64; k++ {
		if err := m.Insert(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	p.InjectScribble(m.Anchor().Off, 8, 5)
	if rep, err := p.Scrub(); err != nil || rep.Unrecovered != 0 || rep.ParityFixes != 0 {
		t.Fatalf("scrub after a scribble: %+v, %v; want it repaired from current parity", rep, err)
	}
	quiet(t, p, "after scrub")
	for k := uint64(0); k < 64; k++ {
		v, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || v != k*7 {
			t.Fatalf("lookup %d = (%d,%v) after scrub", k, v, ok)
		}
	}
}
