package logstore

import (
	"bytes"
	"encoding/hex"
	"os"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/store"
)

func testOpts() Options {
	return Options{Structure: "hashmap", Index: 0, Count: 1, SegmentBytes: 4 << 10}
}

func fill(t *testing.T, s *Store, lo, hi uint64) {
	t.Helper()
	for k := lo; k < hi; k++ {
		if _, err := s.Apply([]store.Op{{Kind: store.OpPut, K: k, V: k * 7}}); err != nil {
			t.Fatal(err)
		}
	}
}

func checkAll(t *testing.T, s *Store, lo, hi uint64) {
	t.Helper()
	for k := lo; k < hi; k++ {
		v, ok, err := s.Get(k)
		if err != nil || !ok || v != k*7 {
			t.Fatalf("key %d = (%d,%v,%v), want %d", k, v, ok, err, k*7)
		}
	}
}

// TestRotationSealsWithHints writes past the segment threshold and
// checks the invariant behind fast reopen: every sealed segment carries
// a hint file, the active tail does not.
func TestRotationSealsWithHints(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 0, 400) // 400 puts ≈ 23KB of records: several rotations
	if len(s.segs) < 3 {
		t.Fatalf("only %d segments after 400 puts with 4KiB threshold", len(s.segs))
	}
	for _, sg := range s.segs[:len(s.segs)-1] {
		if _, err := os.Stat(hintPath(dir, sg.id)); err != nil {
			t.Errorf("sealed segment %d has no hint: %v", sg.id, err)
		}
	}
	if _, err := os.Stat(hintPath(dir, s.active().id)); !os.IsNotExist(err) {
		t.Errorf("active segment %d has a hint file (stat err %v)", s.active().id, err)
	}
	checkAll(t, s, 0, 400)
}

// TestHintFallback damages sealed segments' hint files — truncated,
// byte-flipped, and deleted — and reopens: recovery must detect each
// bad hint (whole-file CRC) and fall back to the strict segment scan,
// landing on exactly the same index.
func TestHintFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 0, 400)
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	sealed := make([]int, 0, len(s.segs)-1)
	for _, sg := range s.segs[:len(s.segs)-1] {
		sealed = append(sealed, sg.id)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sealed) < 3 {
		t.Fatalf("need >=3 sealed segments, have %d", len(sealed))
	}
	// Three flavors of damage across three different sealed segments.
	if err := os.Remove(hintPath(dir, sealed[0])); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(hintPath(dir, sealed[1]), 20); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(hintPath(dir, sealed[2]))
	if err != nil {
		t.Fatal(err)
	}
	data[41] ^= 0xff // first entry's kind byte; whole-file CRC must catch it
	if err := os.WriteFile(hintPath(dir, sealed[2]), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkAll(t, s2, 0, 400)
	if got := s2.Stats().Objects; got != 400 {
		t.Fatalf("reopened with %d objects, want 400", got)
	}
}

// TestMergeRefusesCorruptRecord pins the no-redundancy rule: when
// compaction meets a record that fails its CRC it must abort with a
// typed corruption error and leave the segment in place — deleting it
// would convert detected corruption into silent loss.
func TestMergeRefusesCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 0, 400)
	fill(t, s, 0, 400) // overwrite everything: oldest segment is all dead
	if !s.mergeDue() {
		t.Fatal("merge not due after full overwrite")
	}
	oldest := s.segs[0]
	// Flip a byte in the oldest segment's first record body.
	f, err := os.OpenFile(segPath(dir, oldest.id), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 6); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = s.ScrubStep()
	if err == nil {
		t.Fatal("merge step over a corrupt record succeeded")
	}
	if !pangolin.IsCorruption(err) {
		t.Fatalf("merge error is untyped: %v", err)
	}
	if _, statErr := os.Stat(segPath(dir, oldest.id)); statErr != nil {
		t.Fatalf("merge deleted the corrupt segment: %v", statErr)
	}
	if s.compactions != 0 {
		t.Fatalf("compactions = %d after aborted merge", s.compactions)
	}
	checkAll(t, s, 0, 400) // live data (all in newer segments) unharmed

	// The corrupt segment is quarantined: maintenance must go back to the
	// CRC verify sweep instead of restarting the doomed merge (and
	// erroring at the same record) every tick.
	if s.mergeDue() {
		t.Fatal("merge still due on the quarantined segment")
	}
	wrapped := false
	for i := 0; i < 100 && !wrapped; i++ {
		rep, done, err := s.ScrubStep()
		if err != nil {
			t.Fatalf("scrub step %d after quarantine: %v", i, err)
		}
		if !rep.ChecksumsVerified {
			t.Fatalf("scrub step %d after quarantine was not a verify step", i)
		}
		wrapped = done
	}
	if !wrapped {
		t.Fatal("verify sweep never completed a wrap after quarantine")
	}
}

// TestScrubStepSweepsLikeAPass pins the single CRC walker: with one
// record corrupt in a sealed segment that no merge is due for, the
// maintenance sweep (ScrubStep until done) and a NewScrubPass run to
// completion report the same objects and the same bad one.
func TestScrubStepSweepsLikeAPass(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fill(t, s, 0, 400) // distinct keys: every record live, no merge due
	if len(s.segs) < 3 || s.mergeDue() {
		t.Fatalf("want >=3 segments and no merge due, have %d (due %v)", len(s.segs), s.mergeDue())
	}
	f, err := os.OpenFile(segPath(dir, s.segs[1].id), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 6); err != nil {
		t.Fatal(err)
	}
	f.Close()

	run := func(step func() (pangolin.ScrubReport, bool, error)) pangolin.ScrubReport {
		var total pangolin.ScrubReport
		for i := 0; i < 1000; i++ {
			rep, done, err := step()
			if err != nil {
				t.Fatal(err)
			}
			total.Add(rep)
			if done {
				return total
			}
		}
		t.Fatal("scrub never completed")
		return total
	}
	sweep := run(s.ScrubStep)
	pass := run(s.NewScrubPass().Step)
	if sweep.Objects != pass.Objects || sweep.BadObjects != pass.BadObjects {
		t.Fatalf("sweep %d objects, %d bad; pass %d objects, %d bad",
			sweep.Objects, sweep.BadObjects, pass.Objects, pass.BadObjects)
	}
	if pass.Objects != 400 || pass.BadObjects != 1 {
		t.Fatalf("pass counted %d objects, %d bad; want 400, 1", pass.Objects, pass.BadObjects)
	}
}

// TestCrashSaveSuspendsInflightMerge pins the crash-image contract
// against an *already running* merge: once CrashSave records its
// sidecar, subsequent ScrubSteps must drop the in-flight job rather
// than finish it — completing would delete the oldest segment while its
// copied-forward live records sit past the crash cut, so the simulated
// reopen would lose committed, fsynced data.
func TestCrashSaveSuspendsInflightMerge(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.Scrub.MaxObjectsPerStep = 8 // many steps per merge: easy to catch mid-flight
	s, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 0, 400)
	fill(t, s, 20, 400) // keys 0..19 stay live in the oldest segment; rest of it is dead
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if !s.mergeDue() {
		t.Fatal("merge not due on the mostly-dead oldest segment")
	}
	oldest := s.segs[0].id
	if _, _, err := s.ScrubStep(); err != nil { // starts the merge
		t.Fatal(err)
	}
	if s.merge == nil {
		t.Fatal("merge not in flight after one step")
	}
	if err := s.CrashSave(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := s.ScrubStep(); err != nil {
			t.Fatalf("scrub step %d with crash image pending: %v", i, err)
		}
	}
	if _, err := os.Stat(segPath(dir, oldest)); err != nil {
		t.Fatalf("merge deleted segment %d despite the pending crash image: %v", oldest, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, opts) // applies the crash cut
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkAll(t, s2, 0, 400)
}

// TestRotationFailureDefersOutOfApply forces rotation to fail (the next
// segment file already exists, so addSegment's O_EXCL create errors)
// and pins the Apply contract: the batch is applied, so Apply must
// return its results with a nil error — surfacing the rotation error
// would make the shard worker re-apply the whole group per-op. The
// failure instead surfaces through ScrubStep and rotation is retried
// until it succeeds.
func TestRotationFailureDefersOutOfApply(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocker := segPath(dir, 1)
	if err := os.WriteFile(blocker, nil, 0o666); err != nil {
		t.Fatal(err)
	}
	fill(t, s, 0, 200) // crosses the 4KiB threshold; every Apply must keep succeeding
	if s.rotateErr == nil {
		t.Fatal("rotation never failed against the blocked segment path")
	}
	if len(s.segs) != 1 {
		t.Fatalf("%d segments while rotation is blocked, want 1", len(s.segs))
	}
	checkAll(t, s, 0, 200)
	if _, _, err := s.ScrubStep(); err == nil {
		t.Fatal("ScrubStep did not surface the deferred rotation failure")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	fill(t, s, 200, 210) // next Apply retries rotation and seals
	if len(s.segs) < 2 {
		t.Fatalf("rotation not retried after unblocking: %d segments", len(s.segs))
	}
	if s.rotateErr != nil {
		t.Fatalf("rotateErr still set after successful retry: %v", s.rotateErr)
	}
	checkAll(t, s, 0, 210)
	if _, _, err := s.ScrubStep(); err != nil {
		t.Fatalf("scrub step after recovery: %v", err)
	}
}

// TestRecordEncodingGolden pins the on-disk record format: a put, a
// delete and a commit record encode to the exact bytes existing
// segments hold, at the tail of a non-empty buffer, and decode back to
// their fields.
func TestRecordEncodingGolden(t *testing.T) {
	for _, c := range []struct {
		name            string
		kind            byte
		batch, key, val uint64
		hex             string
	}{
		{"put", recPut, 7, 0x0102030405060708, 0xdeadbeefcafef00d, "1e4091b101070000000000000008070605040302010df0fecaefbeadde"},
		{"del", recDel, 7, 42, 0, "f4de3dab0207000000000000002a000000000000000000000000000000"},
		{"commit", recCommit, 7, 2, 0, "c8aa9a6a03070000000000000002000000000000000000000000000000"},
	} {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{0xAA, 0xBB, 0xCC}
		buf := encodeRecord(append([]byte(nil), prefix...), c.kind, c.batch, c.key, c.val)
		if !bytes.Equal(buf[:len(prefix)], prefix) || !bytes.Equal(buf[len(prefix):], want) {
			t.Fatalf("%s encodes to %x after %x, want %x", c.name, buf[len(prefix):], buf[:len(prefix)], want)
		}
		kind, batch, key, val, ok := decodeRecord(want)
		if !ok || kind != c.kind || batch != c.batch || key != c.key || val != c.val {
			t.Fatalf("%s decodes to kind %d batch %d key %#x val %#x ok %v", c.name, kind, batch, key, val, ok)
		}
	}
}
