package nvm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func newTestDev(t *testing.T, size uint64) *Device {
	t.Helper()
	return New(size, Options{TrackPersistence: true})
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newTestDev(t, 64*1024)
	data := []byte("pangolin nvm device round trip")
	d.WriteAt(1000, data)
	got := make([]byte, len(data))
	if err := d.ReadAt(got, 1000); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

// TestCloseReleasesUntrackedMemory: an untracked device counts in
// MappedBytes until its Close, which is idempotent and leaves no byte
// reachable; a tracked device's Close changes nothing.
func TestCloseReleasesUntrackedMemory(t *testing.T) {
	before := MappedBytes()
	d := New(3*PageSize, Options{})
	d.WriteAt(PageSize, []byte("mapped"))
	if got := MappedBytes() - before; got != 3*PageSize {
		t.Fatalf("MappedBytes rose %d, want %d", got, 3*PageSize)
	}
	d.Close()
	d.Close()
	if got := MappedBytes(); got != before {
		t.Fatalf("MappedBytes %d after Close, %d before New", got, before)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a closed device still hands out its memory")
			}
		}()
		d.Slice(PageSize, 6)
	}()
	tracked := newTestDev(t, PageSize)
	tracked.WriteAt(0, []byte("heap"))
	tracked.Close()
	if string(tracked.Slice(0, 4)) != "heap" || MappedBytes() != before {
		t.Fatal("Close changed a tracked device")
	}
}

func TestSizeRoundsToPage(t *testing.T) {
	d := New(PageSize+1, Options{})
	defer d.Close()
	if d.Size() != 2*PageSize {
		t.Fatalf("size = %d, want %d", d.Size(), 2*PageSize)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newTestDev(t, PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range write")
		}
	}()
	d.WriteAt(PageSize-1, []byte{1, 2})
}

func TestUnalignedAtomicPanics(t *testing.T) {
	d := newTestDev(t, PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned Load64")
		}
	}()
	d.Load64(3)
}

func TestCrashRevertsUnflushedWrites(t *testing.T) {
	d := newTestDev(t, 64*1024)
	d.WriteAt(0, []byte("persistent"))
	d.Persist(0, 10)
	d.WriteAt(0, []byte("transientX"))
	crashed := d.CrashCopy(CrashStrict, 0)
	got := make([]byte, 10)
	if err := crashed.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persistent" {
		t.Fatalf("after crash got %q, want %q", got, "persistent")
	}
	// The original device is untouched.
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "transientX" {
		t.Fatalf("source device changed: got %q", got)
	}
}

func TestCrashKeepsPersistedWrites(t *testing.T) {
	d := newTestDev(t, 64*1024)
	d.WriteAt(128, []byte("abc"))
	d.Flush(128, 3)
	d.Fence()
	crashed := d.CrashCopy(CrashStrict, 0)
	got := make([]byte, 3)
	if err := crashed.ReadAt(got, 128); err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("persisted write lost: got %q", got)
	}
}

func TestFlushWithoutFenceNotPersistent(t *testing.T) {
	d := newTestDev(t, 64*1024)
	d.WriteAt(0, []byte{7})
	d.Persist(0, 1)
	d.WriteAt(0, []byte{9})
	d.Flush(0, 1) // no fence
	crashed := d.CrashCopy(CrashStrict, 0)
	got := make([]byte, 1)
	if err := crashed.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("flushed-but-unfenced line persisted in strict mode: got %d", got[0])
	}
}

func TestWriteAfterFlushInvalidatesFlush(t *testing.T) {
	d := newTestDev(t, 64*1024)
	d.WriteAt(0, []byte{1})
	d.Persist(0, 1)
	d.WriteAt(0, []byte{2})
	d.Flush(0, 1)
	d.WriteAt(0, []byte{3}) // dirties the line again before the fence
	d.Fence()
	crashed := d.CrashCopy(CrashStrict, 0)
	got := make([]byte, 1)
	if err := crashed.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	// The fence only covered the flush of value 2, but the line was
	// re-dirtied with 3 before the fence; value 3 must not be considered
	// persistent. Last persistent image is 1.
	if got[0] != 1 {
		t.Fatalf("got %d, want 1 (re-dirtied line must revert to last persistent image)", got[0])
	}
}

func TestWriteNTNeedsFence(t *testing.T) {
	d := newTestDev(t, 64*1024)
	d.WriteAt(64, []byte{5})
	d.Persist(64, 1)
	d.WriteNT(64, []byte{6})
	crashed := d.CrashCopy(CrashStrict, 0)
	got := make([]byte, 1)
	if err := crashed.ReadAt(got, 64); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("NT store persisted without fence: got %d", got[0])
	}
	d.Fence()
	crashed = d.CrashCopy(CrashStrict, 0)
	if err := crashed.ReadAt(got, 64); err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 {
		t.Fatalf("NT store + fence lost: got %d", got[0])
	}
}

func TestCrashEvictRandomIsLineGranular(t *testing.T) {
	d := newTestDev(t, 64*1024)
	// Two separate lines, both unflushed.
	d.WriteAt(0, bytes.Repeat([]byte{0xAA}, CacheLineSize))
	d.WriteAt(CacheLineSize, bytes.Repeat([]byte{0xBB}, CacheLineSize))
	sawKept, sawReverted := false, false
	for seed := int64(0); seed < 64 && !(sawKept && sawReverted); seed++ {
		c := d.CrashCopy(CrashEvictRandom, seed)
		b := make([]byte, CacheLineSize)
		if err := c.ReadAt(b, 0); err != nil {
			t.Fatal(err)
		}
		allA := true
		allZ := true
		for _, v := range b {
			if v != 0xAA {
				allA = false
			}
			if v != 0 {
				allZ = false
			}
		}
		if !allA && !allZ {
			t.Fatalf("torn line after crash: %v", b)
		}
		if allA {
			sawKept = true
		}
		if allZ {
			sawReverted = true
		}
	}
	if !sawKept || !sawReverted {
		t.Fatalf("random eviction never exercised both outcomes (kept=%v reverted=%v)", sawKept, sawReverted)
	}
}

func TestPoisonReadFails(t *testing.T) {
	d := newTestDev(t, 8*PageSize)
	d.WriteAt(2*PageSize+100, []byte("data"))
	d.Poison(2*PageSize + 50)
	buf := make([]byte, 4)
	err := d.ReadAt(buf, 2*PageSize+100)
	var pe *PoisonError
	if !errors.As(err, &pe) {
		t.Fatalf("expected PoisonError, got %v", err)
	}
	if pe.Off != 2*PageSize {
		t.Fatalf("fault offset = %#x, want %#x", pe.Off, 2*PageSize)
	}
	// Reads elsewhere still work.
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("unrelated read failed: %v", err)
	}
	// Range straddling the poisoned page fails too.
	err = d.ReadAt(make([]byte, 2*PageSize), PageSize)
	if !errors.As(err, &pe) {
		t.Fatalf("straddling read should fault, got %v", err)
	}
}

func TestPoisonDestroysData(t *testing.T) {
	d := newTestDev(t, 4*PageSize)
	d.WriteAt(PageSize, []byte{1, 2, 3})
	d.Poison(PageSize)
	if !d.IsPoisoned(PageSize + 10) {
		t.Fatal("page not poisoned")
	}
	// Direct media view shows zeros: the data is gone.
	s := d.Slice(PageSize, 3)
	if s[0] != 0 || s[1] != 0 || s[2] != 0 {
		t.Fatalf("poisoned page retains data: %v", s[:3])
	}
}

func TestRepairPageClearsPoison(t *testing.T) {
	d := newTestDev(t, 4*PageSize)
	d.Poison(PageSize)
	repaired := bytes.Repeat([]byte{0x5A}, PageSize)
	if err := d.RepairPage(PageSize+123, repaired); err != nil {
		t.Fatal(err)
	}
	if d.IsPoisoned(PageSize) {
		t.Fatal("poison not cleared")
	}
	got := make([]byte, PageSize)
	if err := d.ReadAt(got, PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, repaired) {
		t.Fatal("repair data not written")
	}
	// Repairs are persistent.
	crashed := d.CrashCopy(CrashStrict, 0)
	if err := crashed.ReadAt(got, PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, repaired) {
		t.Fatal("repair did not survive crash")
	}
}

func TestRepairPageWrongSize(t *testing.T) {
	d := newTestDev(t, 4*PageSize)
	if err := d.RepairPage(0, make([]byte, 100)); err == nil {
		t.Fatal("expected error for short repair buffer")
	}
}

func TestPoisonSurvivesCrash(t *testing.T) {
	d := newTestDev(t, 4*PageSize)
	d.Poison(0)
	crashed := d.CrashCopy(CrashStrict, 0)
	if !crashed.IsPoisoned(0) {
		t.Fatal("poison lost across crash")
	}
	pages := crashed.PoisonedPages()
	if len(pages) != 1 || pages[0] != 0 {
		t.Fatalf("PoisonedPages = %v", pages)
	}
}

func TestScribbleBypassesTracking(t *testing.T) {
	d := newTestDev(t, 4*PageSize)
	d.WriteAt(0, []byte("good"))
	d.Persist(0, 4)
	rng := rand.New(rand.NewSource(1))
	d.Scribble(0, 4, rng)
	got := make([]byte, 4)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) == "good" {
		t.Fatal("scribble did not change data")
	}
	// Scribbles are media damage: they survive a crash (no revert).
	crashed := d.CrashCopy(CrashStrict, 0)
	after := make([]byte, 4)
	if err := crashed.ReadAt(after, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, got) {
		t.Fatalf("scribble reverted by crash: %v vs %v", after, got)
	}
}

func TestAtomics(t *testing.T) {
	d := newTestDev(t, PageSize)
	d.Store64(16, 0xDEADBEEF)
	if v := d.Load64(16); v != 0xDEADBEEF {
		t.Fatalf("Load64 = %#x", v)
	}
	d.Xor64(16, 0xFFFF)
	if v := d.Load64(16); v != 0xDEADBEEF^0xFFFF {
		t.Fatalf("Xor64 result = %#x", v)
	}
}

func TestConcurrentXor64(t *testing.T) {
	d := newTestDev(t, PageSize)
	const workers = 8
	const iters = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := uint64(1) << uint(w)
			for i := 0; i < iters; i++ {
				d.Xor64(0, v)
			}
		}(w)
	}
	wg.Wait()
	// Each worker XORs its bit an even number of times: result must be 0.
	if v := d.Load64(0); v != 0 {
		t.Fatalf("lost atomic XOR updates: residual %#x", v)
	}
}

// TestAtomicXorRangeUnaligned: an XOR at any offset and length changes
// exactly the bytes a plain XOR of the delta would, and counts the
// 8-aligned words it covers as written, the span a zero-padded copy of
// the delta used to cover.
func TestAtomicXorRangeUnaligned(t *testing.T) {
	d := newTestDev(t, PageSize)
	f := func(seed int64, offHint uint16, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		off := uint64(offHint) % 2048
		delta := make([]byte, int(n8%64)+1)
		rng.Read(delta)
		want := slices.Clone(d.Slice(0, PageSize))
		for i, b := range delta {
			want[off+uint64(i)] ^= b
		}
		before := d.Stats().BytesWritten.Load()
		d.AtomicXorRange(off, delta)
		span := (off+uint64(len(delta))+7)&^7 - off&^7
		return bytes.Equal(d.Slice(0, PageSize), want) && d.Stats().BytesWritten.Load()-before == span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentXorRangeAndPersist is small parity updates sharing a
// range-lock (§3.5): workers XOR words of the same lines, and each one's
// Persist retires lines the others are still XOR-ing, so the next update
// captures a line's pre-image while a neighbour's word of it is mid-CAS.
// The capture reads with atomic loads; under -race this is the test that a
// plain copy there fails.
func TestConcurrentXorRangeAndPersist(t *testing.T) {
	d := newTestDev(t, PageSize)
	const workers, iters = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			delta := make([]byte, 2*CacheLineSize)
			for i := range delta {
				delta[i] = byte(1 << w)
			}
			for i := 0; i < iters; i++ {
				off := uint64(i%3) * 8
				d.AtomicXorRange(off, delta)
				d.Persist(off, uint64(len(delta)))
			}
		}(w)
	}
	wg.Wait()
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("%d dirty lines after everyone persisted", n)
	}
	got := d.CrashCopy(CrashStrict, 0).Slice(0, 3*CacheLineSize)
	for i, b := range got {
		// Each worker XOR-ed its bit into byte i once per update covering
		// it: those at offset o (0, 8, 16) with o <= i < o+128, made 167,
		// 167 and 166 times.
		n := 0
		for k, times := range []int{167, 167, 166} {
			if o := k * 8; o <= i && i < o+2*CacheLineSize {
				n += times
			}
		}
		want := byte(0)
		if n%2 == 1 {
			want = 1<<workers - 1
		}
		if b != want {
			t.Fatalf("byte %d = %#x after %d updates per worker, want %#x", i, b, n, want)
		}
	}
}

func TestConcurrentDisjointWritesAndPersist(t *testing.T) {
	d := newTestDev(t, 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 64 * 1024
			buf := bytes.Repeat([]byte{byte(w + 1)}, 256)
			for i := 0; i < 100; i++ {
				off := base + uint64(i)*256
				d.WriteAt(off, buf)
				d.Persist(off, 256)
			}
		}(w)
	}
	wg.Wait()
	if n := d.DirtyLines(); n != 0 {
		t.Fatalf("%d dirty lines after everyone persisted", n)
	}
	crashed := d.CrashCopy(CrashStrict, 0)
	for w := 0; w < 8; w++ {
		got := make([]byte, 256)
		if err := crashed.ReadAt(got, uint64(w)*64*1024); err != nil {
			t.Fatal(err)
		}
		for _, b := range got {
			if b != byte(w+1) {
				t.Fatalf("worker %d data lost", w)
			}
		}
	}
}

func TestMarkDirtySliceProtocol(t *testing.T) {
	d := newTestDev(t, PageSize)
	d.WriteAt(0, []byte("old!"))
	d.Persist(0, 4)
	// Direct-write protocol used by the pmemobj baseline.
	d.MarkDirty(0, 4)
	copy(d.Slice(0, 4), "new!")
	crashed := d.CrashCopy(CrashStrict, 0)
	got := make([]byte, 4)
	if err := crashed.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "old!" {
		t.Fatalf("unpersisted direct write survived crash: %q", got)
	}
	d.Persist(0, 4)
	crashed = d.CrashCopy(CrashStrict, 0)
	if err := crashed.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "new!" {
		t.Fatalf("persisted direct write lost: %q", got)
	}
}

func TestPersistHook(t *testing.T) {
	d := newTestDev(t, PageSize)
	calls := 0
	d.SetPersistHook(func() { calls++ })
	d.WriteAt(0, []byte{1})
	d.Persist(0, 1) // flush + fence = 2 hook calls
	if calls != 2 {
		t.Fatalf("hook calls = %d, want 2", calls)
	}
	d.SetPersistHook(nil)
	d.Persist(0, 1)
	if calls != 2 {
		t.Fatal("hook ran after removal")
	}
}

func TestStatsCounting(t *testing.T) {
	d := newTestDev(t, PageSize)
	d.WriteAt(0, make([]byte, 100))
	d.Persist(0, 100)
	if err := d.ReadAt(make([]byte, 50), 0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes.Load() == 0 || s.BytesWritten.Load() != 100 {
		t.Fatalf("write stats: %d ops %d bytes", s.Writes.Load(), s.BytesWritten.Load())
	}
	if s.BytesRead.Load() != 50 {
		t.Fatalf("read stats: %d bytes", s.BytesRead.Load())
	}
	if s.Flushes.Load() != 1 || s.Fences.Load() != 1 {
		t.Fatalf("flush/fence stats: %d/%d", s.Flushes.Load(), s.Fences.Load())
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := newTestDev(t, 8*PageSize)
	d.WriteAt(100, []byte("durable"))
	d.Persist(100, 7)
	d.WriteAt(200, []byte("volatile")) // not persisted: must not survive snapshot
	d.Poison(3 * PageSize)
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	nd, err := ReadSnapshot(&buf, int64(buf.Len()), Options{TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	if nd.Size() != d.Size() {
		t.Fatalf("size mismatch: %d vs %d", nd.Size(), d.Size())
	}
	got := make([]byte, 7)
	if err := nd.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable" {
		t.Fatalf("durable data lost: %q", got)
	}
	got8 := make([]byte, 8)
	if err := nd.ReadAt(got8, 200); err != nil {
		t.Fatal(err)
	}
	if string(got8) == "volatile" {
		t.Fatal("unpersisted data leaked into snapshot")
	}
	if !nd.IsPoisoned(3 * PageSize) {
		t.Fatal("poison set lost in snapshot")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	garbage := []byte("not a snapshot stream")
	if _, err := ReadSnapshot(bytes.NewReader(garbage), int64(len(garbage)), Options{}); err == nil {
		t.Fatal("expected error for garbage input")
	}
}

// FuzzReadSnapshot feeds the snapshot decoder arbitrary streams. It must
// never panic or size a device from a header the stream cannot back, and
// a stream it accepts must hold exactly the media image it loaded: saved
// again, it yields the same image, and that snapshot loads to itself.
// The seeds under testdata/fuzz are a valid one-page snapshot, a bare
// header claiming 1<<62 bytes and a snapshot cut short in its image.
func FuzzReadSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadSnapshot(bytes.NewReader(data), int64(len(data)), Options{})
		if err != nil {
			return
		}
		defer d.Close()
		var w1 bytes.Buffer
		if err := d.WriteSnapshot(&w1); err != nil {
			t.Fatal(err)
		}
		size := int(d.Size())
		if !bytes.Equal(w1.Bytes()[w1.Len()-size:], data[len(data)-size:]) {
			t.Fatal("saved media image differs from the loaded one")
		}
		d2, err := ReadSnapshot(bytes.NewReader(w1.Bytes()), int64(w1.Len()), Options{})
		if err != nil {
			t.Fatalf("reloading a saved snapshot: %v", err)
		}
		defer d2.Close()
		var w2 bytes.Buffer
		if err := d2.WriteSnapshot(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatal("snapshot does not round-trip")
		}
	})
}

// A shard file whose header claims more bytes than the file holds fails
// its load instead of sizing a device from the header (a 1<<62-byte
// claim used to panic in New) or yielding a device.
func TestLoadFileRefusesShortFile(t *testing.T) {
	dir := t.TempDir()
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[8:], 1<<62)
	if err := os.WriteFile(dir+"/header-only", hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := newTestDev(t, 4*PageSize).SaveFile(dir + "/truncated"); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(dir+"/truncated", 24+PageSize); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"header-only", "truncated"} {
		if _, err := LoadFile(dir+"/"+name, Options{}); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := newTestDev(t, 4*PageSize)
	d.WriteAt(0, []byte("file-backed"))
	d.Persist(0, 11)
	path := t.TempDir() + "/pool.img"
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	nd, err := LoadFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	got := make([]byte, 11)
	if err := nd.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "file-backed" {
		t.Fatalf("got %q", got)
	}
}

// TestSparseSaveLoadEqual: a device whose data pages are scattered
// across mostly zero capacity — straddling ReadSnapshot's read chunks,
// one byte at a page's end, the last page — saves to a file that holds
// exactly the snapshot stream (zero pages as holes) and loads back equal
// in every byte and poisoned page. A dense file of the same stream, as
// a plain write leaves it, loads to the same device.
func TestSparseSaveLoadEqual(t *testing.T) {
	const pages = 2*loadChunk/PageSize + 37
	d := New(pages*PageSize, Options{})
	defer d.Close()
	rng := rand.New(rand.NewSource(3))
	for _, p := range []uint64{0, 1, 2, loadChunk/PageSize - 1, loadChunk / PageSize, 300, 301, pages - 1} {
		buf := make([]byte, PageSize)
		rng.Read(buf)
		d.WriteAt(p*PageSize, buf)
	}
	d.WriteAt(100*PageSize-1, []byte{0x80}) // the last byte of page 99
	d.WriteAt(500*PageSize+7, []byte("a short run"))
	for _, p := range []uint64{5, 400, 401} { // the poison table shifts the image off block boundaries
		d.Poison(p * PageSize)
	}
	var stream bytes.Buffer
	if err := d.WriteSnapshot(&stream); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sparse, dense := dir+"/sparse", dir+"/dense"
	if err := d.SaveFile(sparse); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(sparse); err != nil || !bytes.Equal(got, stream.Bytes()) {
		t.Fatalf("saved file differs from the snapshot stream (%v)", err)
	}
	if err := os.WriteFile(dense, stream.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{sparse, dense} {
		nd, err := LoadFile(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nd.Close)
		if !bytes.Equal(nd.Slice(0, nd.Size()), d.Slice(0, d.Size())) {
			t.Fatalf("%s: loaded media differs from the saved device", path)
		}
		if got, want := nd.PoisonedPages(), d.PoisonedPages(); !slices.Equal(sorted(got), sorted(want)) {
			t.Fatalf("%s: poisoned pages %v, want %v", path, got, want)
		}
	}
}

func sorted(s []uint64) []uint64 { return slices.Sorted(slices.Values(s)) }

// TestUntrackedSnapshotMatchesTracked: a served shard's device keeps no
// persistence tracking and is saved only once every line it stored is
// flushed and fenced. There the tracker has nothing to revert, so an
// untracked device and a tracked one driven through the same seeded
// stores, flushes and fences must save byte-identical snapshots. The
// untracked one reports no dirty line at any point and refuses CrashCopy,
// the image it cannot compute.
func TestUntrackedSnapshotMatchesTracked(t *testing.T) {
	const size = 16 * PageSize
	tracked, untracked := New(size, Options{TrackPersistence: true}), New(size, Options{})
	defer untracked.Close()
	if untracked.Options().TrackPersistence || !tracked.Options().TrackPersistence {
		t.Fatal("Options does not report how the device was built")
	}
	rng := rand.New(rand.NewSource(43))
	buf := make([]byte, 3*CacheLineSize)
	for i := 0; i < 2000; i++ {
		n := 8 * uint64(1+rng.Intn(len(buf)/8))
		off := 8 * uint64(rng.Intn(int(size-n)/8))
		rng.Read(buf[:n])
		op := rng.Intn(7)
		for _, d := range []*Device{tracked, untracked} {
			switch op {
			case 0:
				d.WriteAt(off, buf[:n])
			case 1:
				d.WriteNT(off, buf[:n])
			case 2:
				d.Store64(off, binary.LittleEndian.Uint64(buf))
			case 3:
				d.AtomicXorRange(off, buf[:n])
			case 4:
				d.Flush(off, n)
			case 5:
				d.Fence()
			case 6:
				d.Persist(off, n)
			}
		}
		if untracked.DirtyLines() != 0 {
			t.Fatalf("op %d: untracked device reports %d dirty lines", i, untracked.DirtyLines())
		}
	}
	for _, d := range []*Device{tracked, untracked} {
		d.Persist(0, size)
	}
	if n := tracked.DirtyLines(); n != 0 {
		t.Fatalf("tracked device holds %d dirty lines after a full persist", n)
	}
	var a, b bytes.Buffer
	if err := tracked.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := untracked.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("untracked snapshot differs from the tracked one at quiescence")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CrashCopy on an untracked device did not panic")
		}
	}()
	untracked.CrashCopy(CrashStrict, 0)
}

// Property: a persisted write always survives a crash, under any crash mode
// and seed; an unpersisted overwrite never corrupts the persisted image in
// strict mode.
func TestPersistedAlwaysSurvives(t *testing.T) {
	f := func(off16 uint16, val byte, seed int64) bool {
		d := New(1<<20, Options{TrackPersistence: true})
		off := uint64(off16) // < size
		d.WriteAt(off, []byte{val})
		d.Persist(off, 1)
		for _, mode := range []CrashMode{CrashStrict, CrashEvictRandom} {
			c := d.CrashCopy(mode, seed)
			b := make([]byte, 1)
			if err := c.ReadAt(b, off); err != nil {
				return false
			}
			if b[0] != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: after a random-eviction crash, every line is either entirely its
// old or entirely its new image — no intra-line tearing.
func TestNoIntraLineTearing(t *testing.T) {
	f := func(seed int64, nLines uint8) bool {
		n := int(nLines%16) + 1
		d := New(1<<16, Options{TrackPersistence: true})
		oldImg := bytes.Repeat([]byte{0x11}, CacheLineSize)
		newImg := bytes.Repeat([]byte{0x22}, CacheLineSize)
		for i := 0; i < n; i++ {
			d.WriteAt(uint64(i)*CacheLineSize, oldImg)
		}
		d.Persist(0, uint64(n)*CacheLineSize)
		for i := 0; i < n; i++ {
			d.WriteAt(uint64(i)*CacheLineSize, newImg)
		}
		c := d.CrashCopy(CrashEvictRandom, seed)
		for i := 0; i < n; i++ {
			got := make([]byte, CacheLineSize)
			if err := c.ReadAt(got, uint64(i)*CacheLineSize); err != nil {
				return false
			}
			if !bytes.Equal(got, oldImg) && !bytes.Equal(got, newImg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSaveFileTempHygiene: the temp-write-then-rename must never leave
// its .tmp file behind — neither after a successful save (renamed away)
// nor after a failed one (removed on the error path).
func TestSaveFileTempHygiene(t *testing.T) {
	d := newTestDev(t, 4*PageSize)
	d.WriteAt(0, []byte("hygiene"))
	d.Persist(0, 7)
	dir := t.TempDir()

	path := filepath.Join(dir, "pool.img")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after successful save: stat err = %v", err)
	}

	// Error path: the final rename fails because the target is a
	// directory; the temp file must still be cleaned up.
	blocked := filepath.Join(dir, "blocked.img")
	if err := os.Mkdir(blocked, 0o777); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveFile(blocked); err == nil {
		t.Fatal("SaveFile onto a directory should fail")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after failed save: stat err = %v", err)
	}
}
