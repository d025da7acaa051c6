package kvtest

import (
	"math/rand"
	"testing"

	"github.com/pangolin-go/pangolin"
)

// RunScan enforces the kv.Map iteration contract for one structure's
// Scan: inclusive bounds, completeness against a model, early stop,
// ascending order when the structure is ordered, agreement with the
// unbounded Range, and — on a ReadView instance — typed error
// propagation on a mid-scan fault instead of a partial iteration that
// looks complete.
func RunScan(t *testing.T, h Harness, ordered bool) {
	t.Run("BoundsAndOrder", func(t *testing.T) { testScanBounds(t, h, ordered) })
	t.Run("RandomRangesVsModel", func(t *testing.T) { testScanModel(t, h, ordered) })
	t.Run("EarlyStop", func(t *testing.T) { testScanEarlyStop(t, h) })
	t.Run("EmptyAndDegenerate", func(t *testing.T) { testScanDegenerate(t, h) })
	t.Run("ViewFaultSurfaces", func(t *testing.T) { testScanViewFault(t, h) })
}

// collectScan gathers one Scan's pairs, asserting ascending keys when
// ordered.
func collectScan(t *testing.T, m interface {
	Scan(lo, hi uint64, fn func(k, v uint64) bool) error
}, lo, hi uint64, ordered bool) map[uint64]uint64 {
	t.Helper()
	got := map[uint64]uint64{}
	last, first := uint64(0), true
	if err := m.Scan(lo, hi, func(k, v uint64) bool {
		if k < lo || k > hi {
			t.Fatalf("scan [%d,%d] yielded out-of-bounds key %d", lo, hi, k)
		}
		if _, dup := got[k]; dup {
			t.Fatalf("scan [%d,%d] yielded key %d twice", lo, hi, k)
		}
		if ordered && !first && k <= last {
			t.Fatalf("scan [%d,%d] broke ascending order: %d after %d", lo, hi, k, last)
		}
		got[k] = v
		last, first = k, false
		return true
	}); err != nil {
		t.Fatalf("scan [%d,%d]: %v", lo, hi, err)
	}
	return got
}

func testScanBounds(t *testing.T, h Harness, ordered bool) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m, err := h.Make(p)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{0, 1, 7, 19, 20, 21, 55, 100, 255, 256, 1 << 40, ^uint64(0) - 1, ^uint64(0)}
	for _, k := range keys {
		if err := m.Insert(k, k^0xABCD); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	check := func(lo, hi uint64) {
		t.Helper()
		got := collectScan(t, m, lo, hi, ordered)
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
				if v, ok := got[k]; !ok || v != k^0xABCD {
					t.Fatalf("scan [%d,%d]: key %d = (%d,%v), want %d", lo, hi, k, v, ok, k^0xABCD)
				}
			}
		}
		if len(got) != want {
			t.Fatalf("scan [%d,%d] returned %d pairs, want %d", lo, hi, len(got), want)
		}
	}
	// Inclusive at both ends, interior ranges, single-key ranges, and the
	// extremes of the key space.
	check(0, ^uint64(0))
	check(7, 100)
	check(8, 99)
	check(20, 20)
	check(2, 6) // no keys inside
	check(^uint64(0)-1, ^uint64(0))
	check(0, 0)
	check(256, 1<<40)
}

func testScanModel(t *testing.T, h Harness, ordered bool) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m, err := h.Make(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	model := map[uint64]uint64{}
	const keySpace = 2000
	for i := 0; i < 500; i++ {
		k := uint64(rng.Intn(keySpace))
		if rng.Intn(5) == 0 {
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
	for trial := 0; trial < 20; trial++ {
		lo := uint64(rng.Intn(keySpace))
		hi := lo + uint64(rng.Intn(keySpace/2))
		got := collectScan(t, m, lo, hi, ordered)
		for k, v := range model {
			if k >= lo && k <= hi {
				if gv, ok := got[k]; !ok || gv != v {
					t.Fatalf("trial %d scan [%d,%d]: key %d = (%d,%v), model %d", trial, lo, hi, k, gv, ok, v)
				}
				delete(got, k)
			}
		}
		if len(got) != 0 {
			t.Fatalf("trial %d scan [%d,%d]: %d pairs not in model: %v", trial, lo, hi, len(got), got)
		}
	}
	// The full-range Scan and Range must agree pair-for-pair.
	full := collectScan(t, m, 0, ^uint64(0), ordered)
	viaRange := map[uint64]uint64{}
	if err := m.(Ranger).Range(func(k, v uint64) bool { viaRange[k] = v; return true }); err != nil {
		t.Fatal(err)
	}
	if len(full) != len(viaRange) {
		t.Fatalf("full scan %d pairs, Range %d", len(full), len(viaRange))
	}
	for k, v := range viaRange {
		if full[k] != v {
			t.Fatalf("key %d: scan %d, range %d", k, full[k], v)
		}
	}
}

func testScanEarlyStop(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m, err := h.Make(p)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 50; k++ {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := m.Scan(0, ^uint64(0), func(k, v uint64) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatalf("early-stopped scan returned error: %v", err)
	}
	if n != 5 {
		t.Fatalf("early stop visited %d pairs, want 5", n)
	}
	// Stopping on the very first pair.
	n = 0
	if err := m.Scan(10, 20, func(k, v uint64) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("first-pair stop visited %d", n)
	}
}

func testScanDegenerate(t *testing.T, h Harness) {
	p := newPool(t, pangolin.ModePangolinMLPC)
	m, err := h.Make(p)
	if err != nil {
		t.Fatal(err)
	}
	// Empty structure yields nothing.
	if err := m.Scan(0, ^uint64(0), func(k, v uint64) bool {
		t.Fatal("empty structure yielded a pair")
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(42, 1); err != nil {
		t.Fatal(err)
	}
	// Inverted bounds are an empty range, not an error.
	if err := m.Scan(50, 10, func(k, v uint64) bool {
		t.Fatal("inverted range yielded a pair")
		return false
	}); err != nil {
		t.Fatalf("inverted range: %v", err)
	}
	// A range strictly outside the stored keys yields nothing.
	if err := m.Scan(43, 1000, func(k, v uint64) bool {
		t.Fatalf("out-of-range scan yielded key %d", k)
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

// testScanViewFault injects a media error under the structure and
// verifies the iteration contract's fault clause on a ReadView: the scan
// must surface an error — a typed CorruptionError or poison error — and
// never complete silently over the damage; the owner
// instance then repairs, after which the view scans clean again.
func testScanViewFault(t *testing.T, h Harness) {
	p, m, rom := makeWithView(t, h, 16)
	want := map[uint64]uint64{}
	for k := uint64(0); k < 16; k++ {
		want[k] = concVal(0, k)
	}
	verify := func(m interface {
		Scan(lo, hi uint64, fn func(k, v uint64) bool) error
	}) error {
		got := map[uint64]uint64{}
		if err := m.Scan(0, ^uint64(0), func(k, v uint64) bool { got[k] = v; return true }); err != nil {
			return err
		}
		if len(got) != len(want) {
			t.Fatalf("scan returned %d pairs, want %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("key %d: got %d want %d", k, got[k], v)
			}
		}
		return nil
	}
	p.InjectMediaError(m.Anchor().Off)
	err := rom.Scan(0, ^uint64(0), func(k, v uint64) bool { return true })
	if err == nil {
		t.Fatal("read-view scan over a poisoned page completed without error (partial iteration would look complete)")
	}
	// The error must be one of the typed, retryable read-view conditions
	// — never a silent success, and recognizably NOT data ("retry via the
	// owner path" is a meaningful verdict for each of these).
	if !pangolin.IsCorruption(err) && !pangolin.IsPoison(err) {
		t.Fatalf("read-view scan fault is not a typed retryable error: %v", err)
	}
	// The owner path repairs online…
	if err := verify(m); err != nil {
		t.Fatalf("owner scan after poison: %v", err)
	}
	// …after which the view iterates completely again.
	if err := verify(rom); err != nil {
		t.Fatalf("view scan after repair: %v", err)
	}
}
