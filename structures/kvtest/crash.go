package kvtest

import (
	"maps"
	"sort"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
)

// This file is the structure-level analog of internal/core's commit
// crash sweeps: instead of sweeping a synthetic overwrite transaction,
// it sweeps every persistence point (every Flush and Fence the simulated
// NVMM sees) of real structure operations — Insert of a new key, update
// in place, Remove, and a multi-op batch commit — crashes there via the
// device persist hook, reopens a random-eviction crash image, and
// verifies the recovered structure against a model. The invariant is the
// paper's atomicity guarantee lifted to the kv.Map level: after recovery
// the structure holds exactly the pre-image or exactly the post-image of
// the interrupted operation — never a mix, never a torn node — and a
// scrub pass finds nothing unrecoverable.

// crashSignal aborts execution at a chosen persistence point.
type crashSignal struct{}

// runUntilCrash executes fn, crashing (via the device persist hook) at
// the crashAt-th persistence operation. It reports whether the hook
// fired and whether fn completed.
func runUntilCrash(dev *pangolin.Device, crashAt int, fn func()) (crashed, completed bool) {
	count := 0
	dev.SetPersistHook(func() {
		count++
		if count == crashAt {
			panic(crashSignal{})
		}
	})
	defer dev.SetPersistHook(nil)
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(crashSignal); !ok {
					panic(r)
				}
				crashed = true
			}
		}()
		fn()
		completed = true
	}()
	return crashed, completed
}

// crashPrefill is the committed base state every sweep starts from.
const crashPrefill = 16

func crashPreModel() map[uint64]uint64 {
	m := make(map[uint64]uint64, crashPrefill)
	for k := uint64(0); k < crashPrefill; k++ {
		m[k] = k*7 + 1
	}
	return m
}

// CrashStep is one swept operation: Run mutates the live structure, Post
// applies the same mutation to a model copy.
type CrashStep struct {
	Name string
	Run  func(p *pangolin.Pool, m kv.Map) error
	Post func(model map[uint64]uint64)
}

func crashCases() []CrashStep {
	return []CrashStep{
		{"Insert",
			func(p *pangolin.Pool, m kv.Map) error { return m.Insert(100, 4242) },
			func(mod map[uint64]uint64) { mod[100] = 4242 }},
		{"Update",
			func(p *pangolin.Pool, m kv.Map) error { return m.Insert(3, 9999) },
			func(mod map[uint64]uint64) { mod[3] = 9999 }},
		{"Remove",
			func(p *pangolin.Pool, m kv.Map) error { _, err := m.Remove(5); return err },
			func(mod map[uint64]uint64) { delete(mod, 5) }},
		// A group-committed batch: inserts, a remove, and an update in
		// one transaction, the shape the serving layer's group commit
		// produces. Atomicity must hold for the whole group.
		{"BatchCommit",
			func(p *pangolin.Pool, m kv.Map) error {
				return p.Run(func(tx *pangolin.Tx) error {
					if err := m.InsertTx(tx, 200, 1); err != nil {
						return err
					}
					if err := m.InsertTx(tx, 201, 2); err != nil {
						return err
					}
					if _, err := m.RemoveTx(tx, 7); err != nil {
						return err
					}
					return m.InsertTx(tx, 3, 555)
				})
			},
			func(mod map[uint64]uint64) {
				mod[200], mod[201] = 1, 2
				delete(mod, 7)
				mod[3] = 555
			}},
	}
}

// RunCrashSweep is the exhaustive crash-point sweep: for each operation
// kind it crashes at every persistence point (sampled with a stride in
// -short mode; the nightly workflow visits every point), reopens
// random-eviction crash images, and verifies pre-/post-image atomicity
// plus scrub cleanliness. Run it for every registered structure — the
// registry-wide driver lives in structures/kv's tests.
func RunCrashSweep(t *testing.T, h Harness) {
	for _, c := range crashCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			sweepCase(t, h, c)
		})
	}
}

func sweepCase(t *testing.T, h Harness, c CrashStep) {
	RunCrashSequence(t, h, CrashSequence{
		Prefill: func(tx *pangolin.Tx, m kv.Map) error {
			for k := uint64(0); k < crashPrefill; k++ {
				if err := m.InsertTx(tx, k, k*7+1); err != nil {
					return err
				}
			}
			return nil
		},
		Base:  crashPreModel(),
		Steps: []CrashStep{c},
		Modes: []pangolin.CrashMode{pangolin.CrashEvictRandom},
	})
}

// CrashSequence describes a window of a structure's life to sweep: the
// committed starting state (Prefill builds it inside one transaction, Base
// is its model), the operations that follow, and the crash modes to reopen
// under.
type CrashSequence struct {
	Geometry pangolin.Geometry // zero value: the suite's 12-zone pool
	Prefill  func(tx *pangolin.Tx, m kv.Map) error
	Base     map[uint64]uint64
	Steps    []CrashStep
	Modes    []pangolin.CrashMode
}

// RunCrashSequence sweeps every persistence point of a whole sequence of
// operations — a window that spans transactions, such as a table growth,
// the migration steps after it, and the transaction that frees the old
// table. A crash during step i must recover to the model after i steps or
// after i+1, under every listed crash mode, with Scan agreeing with
// Lookup key for key, and scrub clean.
func RunCrashSequence(t *testing.T, h Harness, seq CrashSequence) {
	steps := seq.Steps
	// models[i] is the state after i completed steps.
	models := []map[uint64]uint64{seq.Base}
	for _, st := range steps {
		next := maps.Clone(models[len(models)-1])
		st.Post(next)
		models = append(models, next)
	}
	everKey := make(map[uint64]uint64)
	for _, mod := range models {
		maps.Copy(everKey, mod)
	}
	keys := unionKeys(everKey, nil)

	stride, seeds := 1, int64(2)
	if testing.Short() {
		// PR CI samples the sweep; nightly visits every crash point.
		stride, seeds = 5, 1
	}
	cfg := pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: seq.Geometry}
	if cfg.Geometry == (pangolin.Geometry{}) {
		cfg.Geometry = testGeometry()
	}
	for crashAt := 1; ; crashAt += stride {
		p, err := pangolin.Create(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := h.Make(p)
		if err != nil {
			t.Fatal(err)
		}
		// Deterministic prefill (one transaction) so the swept
		// operations see the same structure shape — and the same
		// persist-point sequence — at every crashAt.
		if err := p.Run(func(tx *pangolin.Tx) error { return seq.Prefill(tx, m) }); err != nil {
			t.Fatal(err)
		}
		anchor := m.Anchor()

		done := 0 // steps completed before the crash
		var opErr error
		crashed, completed := runUntilCrash(p.Device(), crashAt, func() {
			for _, st := range steps {
				if opErr = st.Run(p, m); opErr != nil {
					return
				}
				done++
			}
		})
		if completed && opErr != nil {
			t.Fatalf("crashAt=%d: step %d (%s) failed without crashing: %v", crashAt, done, steps[done].Name, opErr)
		}
		if !crashed && !completed {
			t.Fatalf("crashAt=%d: neither crashed nor completed", crashAt)
		}
		pre, post := models[done], models[min(done+1, len(steps))]

		for _, mode := range seq.Modes {
			for seed := int64(0); seed < seeds; seed++ {
				if mode == pangolin.CrashStrict && seed > 0 {
					break // a strict image does not depend on the seed
				}
				img := p.Device().CrashCopy(mode, int64(crashAt)*31+seed)
				p2, err := pangolin.OpenDevice(img, pangolin.Config{Mode: pangolin.ModePangolinMLPC}, nil)
				if err != nil {
					t.Fatalf("crashAt=%d mode=%d seed=%d: reopen: %v", crashAt, mode, seed, err)
				}
				m2, err := h.Attach(p2, anchor)
				if err != nil {
					t.Fatalf("crashAt=%d mode=%d seed=%d: attach: %v", crashAt, mode, seed, err)
				}
				got := readState(t, m2, keys)
				switch {
				case completed && !modelsEqual(got, post):
					t.Fatalf("crashAt=%d mode=%d seed=%d: committed op lost or mangled:\n got %v\nwant %v",
						crashAt, mode, seed, got, post)
				case !completed && !modelsEqual(got, pre) && !modelsEqual(got, post):
					t.Fatalf("crashAt=%d mode=%d seed=%d: crash in step %d: recovered state is neither pre- nor post-image:\n got %v\n pre %v\npost %v",
						crashAt, mode, seed, done, got, pre, post)
				}
				scanned := make(map[uint64]uint64)
				if err := m2.Scan(0, ^uint64(0), func(k, v uint64) bool {
					if _, dup := scanned[k]; dup {
						t.Fatalf("crashAt=%d mode=%d seed=%d: scan visited key %d twice", crashAt, mode, seed, k)
					}
					scanned[k] = v
					return true
				}); err != nil || !modelsEqual(scanned, got) {
					t.Fatalf("crashAt=%d mode=%d seed=%d: scan after recovery disagrees with lookups (%v):\n scan %v\n  get %v",
						crashAt, mode, seed, err, scanned, got)
				}
				if rep, err := p2.Scrub(); err != nil || rep.Unrecovered != 0 {
					t.Fatalf("crashAt=%d mode=%d seed=%d: scrub after recovery: %+v, %v", crashAt, mode, seed, rep, err)
				}
				p2.Close()
			}
		}
		p.Close()
		if !crashed {
			return // swept past the last operation's last persistence point
		}
		if crashAt > 20000 {
			t.Fatal("sweep did not terminate")
		}
	}
}

// unionKeys returns the sorted union of both models' key sets.
func unionKeys(a, b map[uint64]uint64) []uint64 {
	set := make(map[uint64]struct{}, len(a)+len(b))
	for k := range a {
		set[k] = struct{}{}
	}
	for k := range b {
		set[k] = struct{}{}
	}
	keys := make([]uint64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// readState reads every key in keys from the structure into a model map.
func readState(t *testing.T, m kv.Map, keys []uint64) map[uint64]uint64 {
	t.Helper()
	got := make(map[uint64]uint64)
	for _, k := range keys {
		v, ok, err := m.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %d after recovery: %v", k, err)
		}
		if ok {
			got[k] = v
		}
	}
	return got
}

func modelsEqual(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
