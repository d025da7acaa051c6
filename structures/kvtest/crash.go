package kvtest

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/kv"
)

// This file is the structure-level analog of internal/core's commit
// crash sweeps: instead of sweeping a synthetic overwrite transaction,
// it sweeps every persistence point (every Flush and Fence the simulated
// NVMM sees) of real structure operations — Insert of a new key, update
// in place, Remove, and a multi-op batch commit. The operations run
// forward once; at each sampled point the device persist hook reverts a
// random-eviction crash image into a second device, reopens it and
// verifies the recovered structure against a model, and the run goes on.
// The invariant is the paper's atomicity guarantee lifted to the kv.Map
// level: after recovery the structure holds exactly the pre-image or
// exactly the post-image of the interrupted operation — never a mix,
// never a torn node — and a scrub pass finds nothing unrecoverable.

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
// kind it checks the crash image of every persistence point (sampled with
// a stride in -short mode; the nightly workflow visits every point) under
// random eviction, for pre-/post-image atomicity plus scrub cleanliness.
// The batch commit's sweep also crashes inside the recovery of each image
// that needs recovery writes. Run it for every registered structure — the
// registry-wide driver lives in structures/kv's tests.
func RunCrashSweep(t *testing.T, h Harness) {
	for _, c := range crashCases() {
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
		Base:          crashPreModel(),
		Steps:         []CrashStep{c},
		Modes:         []pangolin.CrashMode{pangolin.CrashEvictRandom},
		crashRecovery: c.Name == "BatchCommit",
	})
}

// CrashSequence describes a window of a structure's life to sweep: the
// committed starting state (Prefill builds it inside one transaction, Base
// is its model), the operations that follow, and the crash modes to reopen
// under. Steps run on the live pool: a Run never sees a crash image.
type CrashSequence struct {
	Geometry pangolin.Geometry // zero value: the suite's 12-zone pool
	Prefill  func(tx *pangolin.Tx, m kv.Map) error
	Base     map[uint64]uint64
	Steps    []CrashStep
	Modes    []pangolin.CrashMode

	// crashRecovery also sweeps the persistence points of each image's
	// recovery (RunCrashSweep's batch commit).
	crashRecovery bool
}

// RunCrashSequence sweeps every persistence point of a whole sequence of
// operations — a window that spans transactions, such as a table growth,
// the migration steps after it, and the transaction that frees the old
// table. The steps run once, forward, on one pool. At each sampled point
// the persist hook reverts the crash image under every listed mode into a
// second device and checks it there, while the live pool, which the image
// leaves untouched, waits; so a step's Run never sees the image, and the
// image is the one a crash stopping the run there would leave. A crash
// during step i must recover to the model after i steps or after i+1, with
// Scan agreeing with Lookup key for key, and scrub clean; the first
// sampled point past the last step must recover to the final model. A
// sequence that passes no persistence point fails.
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
	keys := slices.Sorted(maps.Keys(everKey))

	stride, seeds := 1, int64(2)
	if testing.Short() {
		// PR CI samples the sweep; nightly visits every crash point.
		stride, seeds = 5, 1
	}
	cfg := pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: seq.Geometry}
	if cfg.Geometry == (pangolin.Geometry{}) {
		cfg.Geometry = testGeometry()
	}
	p, err := pangolin.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, err := h.Make(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(func(tx *pangolin.Tx) error { return seq.Prefill(tx, m) }); err != nil {
		t.Fatal(err)
	}
	anchor := m.Anchor()
	dev := p.Device()
	// Every check reverts its image into img, and a crash inside that
	// image's recovery into rec.
	img, rec := dev.CrashCopy(pangolin.CrashStrict, 0), dev.CrashCopy(pangolin.CrashStrict, 0)

	// reopen recovers the image on d, with hook as d's persist hook while
	// recovery runs.
	reopen := func(at string, d *pangolin.Device, hook func()) *pangolin.Pool {
		d.SetPersistHook(hook)
		p2, err := pangolin.OpenDevice(d, pangolin.Config{Mode: pangolin.ModePangolinMLPC}, nil)
		d.SetPersistHook(nil)
		if err != nil {
			t.Fatalf("%s: reopen: %v", at, err)
		}
		return p2
	}
	// verify requires the recovered pool to hold the pre- or post-image,
	// and closes it.
	verify := func(at string, p2 *pangolin.Pool, pre, post map[uint64]uint64) {
		defer p2.Close()
		m2, err := h.Attach(p2, anchor)
		if err != nil {
			t.Fatalf("%s: attach: %v", at, err)
		}
		got := readState(t, m2, keys)
		if !maps.Equal(got, pre) && !maps.Equal(got, post) {
			t.Fatalf("%s: recovered state is neither pre- nor post-image:\n got %v\n pre %v\npost %v", at, got, pre, post)
		}
		scanned := make(map[uint64]uint64)
		if err := m2.Scan(0, ^uint64(0), func(k, v uint64) bool {
			if _, dup := scanned[k]; dup {
				t.Fatalf("%s: scan visited key %d twice", at, k)
			}
			scanned[k] = v
			return true
		}); err != nil || !maps.Equal(scanned, got) {
			t.Fatalf("%s: scan after recovery disagrees with lookups (%v):\n scan %v\n  get %v", at, err, scanned, got)
		}
		if rep, err := p2.Scrub(); err != nil || !clean(p2, rep) {
			t.Fatalf("%s: scrub after recovery: %+v, %v", at, rep, err)
		}
	}
	// check verifies the crash images of point, done steps in. Where the
	// first image's recovery writes, it recovers that image again and
	// crashes the recovery at its first, middle and last persistence
	// point: recovery must be idempotent, so recovering that second image
	// reaches the pre- or post-image too.
	check := func(point, done int) {
		pre, post := models[done], models[min(done+1, len(steps))]
		for _, mode := range seq.Modes {
			for seed := int64(0); seed < seeds; seed++ {
				if mode == pangolin.CrashStrict && seed > 0 {
					break // a strict image does not depend on the seed
				}
				at := fmt.Sprintf("point %d (step %d) mode %d seed %d", point, done, mode, seed)
				dev.CrashCopyInto(img, mode, int64(point)*31+seed)
				n := 0
				verify(at, reopen(at, img, func() { n++ }), pre, post)
				if !seq.crashRecovery || n == 0 || seed > 0 {
					continue
				}
				dev.CrashCopyInto(img, mode, int64(point)*31)
				k := 0
				reopen(at, img, func() {
					if k++; k == 1 || k == (n+1)/2 || k == n {
						at := fmt.Sprintf("%s, recovery point %d of %d", at, k, n)
						img.CrashCopyInto(rec, mode, int64(k))
						verify(at, reopen(at, rec, nil), pre, post)
					}
				}).Close()
			}
		}
	}

	points, done := 0, 0
	dev.SetPersistHook(func() {
		if points++; (points-1)%stride == 0 && !t.Failed() {
			check(points, done)
		}
	})
	for _, st := range steps {
		if err := st.Run(p, m); err != nil {
			t.Fatalf("step %d (%s): %v", done, st.Name, err)
		}
		done++
	}
	dev.SetPersistHook(nil)
	if points == 0 {
		t.Fatal("the persist hook never fired: no crash point was checked")
	}
	check(points-(points-1)%stride+stride, done)
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
