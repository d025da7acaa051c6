package nvm

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// refModel is the tracker this package used before the page table: a map
// entry per dirty cache line holding its last persistent image and whether a
// flush has been issued since the last store. It is kept as the reference
// the page-granular tracker is checked against, over its own copy of the
// device's bytes.
type refModel struct {
	mem   []byte
	lines map[uint64]*refLine
}

type refLine struct {
	old     [CacheLineSize]byte
	flushed bool
}

func (m *refModel) eachLine(off, n uint64, fn func(line uint64)) {
	for line := off / CacheLineSize; n != 0 && line <= (off+n-1)/CacheLineSize; line++ {
		fn(line)
	}
}

// store captures the lines of [off, off+len(data)) and writes data.
func (m *refModel) store(off uint64, data []byte) {
	m.eachLine(off, uint64(len(data)), func(line uint64) {
		if rec, ok := m.lines[line]; ok {
			rec.flushed = false
			return
		}
		rec := &refLine{}
		copy(rec.old[:], m.mem[line*CacheLineSize:])
		m.lines[line] = rec
	})
	copy(m.mem[off:], data)
}

func (m *refModel) flush(off, n uint64) {
	m.eachLine(off, n, func(line uint64) {
		if rec, ok := m.lines[line]; ok {
			rec.flushed = true
		}
	})
}

func (m *refModel) fence() {
	for line, rec := range m.lines {
		if rec.flushed {
			delete(m.lines, line)
		}
	}
}

func (m *refModel) drop(off, n uint64) {
	m.eachLine(off, n, func(line uint64) { delete(m.lines, line) })
}

// strict is the CrashStrict image: every tracked line reverted.
func (m *refModel) strict() []byte {
	img := bytes.Clone(m.mem)
	for line, rec := range m.lines {
		copy(img[line*CacheLineSize:], rec.old[:])
	}
	return img
}

// xored returns m.mem[off:off+len(delta)] XOR delta.
func (m *refModel) xored(off uint64, delta []byte) []byte {
	out := bytes.Clone(delta)
	for i := range out {
		out[i] ^= m.mem[off+uint64(i)]
	}
	return out
}

// trackerDriver applies one random device operation per step to a Device and
// to the reference model.
type trackerDriver struct {
	d   *Device
	m   *refModel
	rng *rand.Rand
}

func newTrackerDriver(pages uint64, seed int64) *trackerDriver {
	size := pages * PageSize
	return &trackerDriver{
		d:   New(size, Options{TrackPersistence: true}),
		m:   &refModel{mem: make([]byte, size), lines: make(map[uint64]*refLine)},
		rng: rand.New(rand.NewSource(seed)),
	}
}

// span picks a range, usually a few lines around a line or page boundary
// and now and then several pages; align rounds its ends down to a multiple.
func (t *trackerDriver) span(align uint64) (off, n uint64) {
	size := t.d.Size()
	switch t.rng.Intn(4) {
	case 0: // ends near a page boundary
		off = uint64(t.rng.Intn(int(size/PageSize)))*PageSize + PageSize - uint64(t.rng.Intn(200))
	case 1: // ends near a line boundary
		off = uint64(t.rng.Intn(int(size/CacheLineSize)))*CacheLineSize + CacheLineSize - uint64(t.rng.Intn(16))
	default:
		off = uint64(t.rng.Int63n(int64(size)))
	}
	off = min(off, size-align) / align * align
	n = uint64(t.rng.Intn(300)) + 1
	if t.rng.Intn(16) == 0 {
		n = uint64(t.rng.Intn(3 * PageSize))
	}
	n = max(min(n, size-off)/align*align, align)
	return off, n
}

func (t *trackerDriver) bytes(n uint64) []byte {
	b := make([]byte, n)
	t.rng.Read(b)
	return b
}

func (t *trackerDriver) step() string {
	d, m := t.d, t.m
	switch op := t.rng.Intn(30); {
	case op < 5:
		off, n := t.span(1)
		data := t.bytes(n)
		d.WriteAt(off, data)
		m.store(off, data)
		return "WriteAt"
	case op < 8:
		off, n := t.span(1)
		data := t.bytes(n)
		d.WriteNT(off, data)
		m.store(off, data)
		m.flush(off, n)
		return "WriteNT"
	case op < 10:
		off, n := t.span(1)
		b := byte(t.rng.Intn(256))
		d.Memset(off, b, n)
		m.store(off, bytes.Repeat([]byte{b}, int(n)))
		return "Memset"
	case op < 12:
		off, _ := t.span(8)
		data := t.bytes(8)
		d.Store64(off, binary.LittleEndian.Uint64(data))
		m.store(off, data)
		return "Store64"
	case op < 14:
		off, _ := t.span(8)
		delta := t.bytes(8)
		d.Xor64(off, binary.LittleEndian.Uint64(delta))
		m.store(off, m.xored(off, delta))
		return "Xor64"
	case op < 17:
		off, n := t.span(8)
		delta := t.bytes(n)
		clear(delta[:n/2/8*8]) // zero words are captured too, but not stored
		d.AtomicXorRange(off, delta)
		m.store(off, m.xored(off, delta))
		return "AtomicXorRange"
	case op < 19:
		off, n := t.span(1)
		data := t.bytes(n)
		d.MarkDirty(off, n)
		copy(d.Slice(off, n), data)
		m.store(off, data)
		return "MarkDirty"
	case op < 24:
		off, n := t.span(1)
		d.Flush(off, n)
		m.flush(off, n)
		return "Flush"
	case op < 27:
		d.Fence()
		m.fence()
		return "Fence"
	case op < 28:
		off, n := t.span(1)
		d.Scribble(off, n, t.rng)
		copy(m.mem[off:], d.Slice(off, n))
		m.drop(off, n)
		return "Scribble"
	case op < 29:
		off, _ := t.span(1)
		if t.rng.Intn(2) == 0 {
			d.Poison(off)
			m.store(off/PageSize*PageSize, make([]byte, PageSize))
			return "Poison"
		}
		data := t.bytes(PageSize)
		if err := d.RepairPage(off, data); err != nil {
			panic(err)
		}
		base := off / PageSize * PageSize
		m.store(base, data)
		m.flush(base, PageSize)
		m.fence()
		return "RepairPage"
	default:
		if t.rng.Intn(8) != 0 {
			return t.step() // rare enough that state builds up between wipes
		}
		d.ZeroAll()
		clear(m.mem)
		clear(m.lines)
		return "ZeroAll"
	}
}

// TestTrackerMatchesReference drives the page-granular tracker and the
// per-line reference through the same random operations and requires, after
// every one, the same contents, the same number of dirty lines and a
// byte-identical strict crash image, as CrashCopy builds it, as
// CrashCopyInto rebuilds it in one device stored over between steps, and
// as WriteSnapshot streams it.
func TestTrackerMatchesReference(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 500
	}
	for seed := int64(1); seed <= 3; seed++ {
		drv := newTrackerDriver(8, seed)
		reused := New(drv.d.Size(), Options{TrackPersistence: true})
		for i := 0; i < steps; i++ {
			op := drv.step()
			size := drv.d.Size()
			if !bytes.Equal(drv.d.Slice(0, size), drv.m.mem) {
				t.Fatalf("seed %d step %d (%s): contents differ from the model", seed, i, op)
			}
			if got, want := drv.d.DirtyLines(), len(drv.m.lines); got != want {
				t.Fatalf("seed %d step %d (%s): %d dirty lines, model has %d", seed, i, op, got, want)
			}
			var snap bytes.Buffer
			if err := drv.d.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			saved, err := ReadSnapshot(&snap, int64(snap.Len()), Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := drv.m.strict()
			drv.d.CrashCopyInto(reused, CrashStrict, 0)
			for name, dev := range map[string]*Device{"strict crash image": drv.d.CrashCopy(CrashStrict, 0), "reused crash image": reused, "snapshot": saved} {
				img := dev.Slice(0, size)
				for l := uint64(0); l < size; l += CacheLineSize {
					if !bytes.Equal(img[l:l+CacheLineSize], want[l:l+CacheLineSize]) {
						t.Fatalf("seed %d step %d (%s): %s differs from the model at line %d (page %d)",
							seed, i, op, name, l/CacheLineSize, l/PageSize)
					}
				}
			}
			saved.Close()
			reused.Memset(uint64(i)*977%(size-300), 0xEE, 300)
		}
	}
}

// TestCrashCopySeeded: a random-eviction image is a function of the device
// state and the seed — the same seed replays the same image, another seed
// gives another — and each of its lines is either the line's current
// contents or its last persistent image.
func TestCrashCopySeeded(t *testing.T) {
	drv := newTrackerDriver(8, 42)
	for drv.d.DirtyLines() < 64 {
		drv.step()
	}
	size := drv.d.Size()
	a := drv.d.CrashCopy(CrashEvictRandom, 7).Slice(0, size)
	b := drv.d.CrashCopy(CrashEvictRandom, 7).Slice(0, size)
	c := drv.d.CrashCopy(CrashEvictRandom, 8).Slice(0, size)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different crash images")
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave the same crash image")
	}
	cur, old := drv.m.mem, drv.m.strict()
	kept, reverted := 0, 0
	for l := uint64(0); l < size; l += CacheLineSize {
		isCur := bytes.Equal(a[l:l+CacheLineSize], cur[l:l+CacheLineSize])
		isOld := bytes.Equal(a[l:l+CacheLineSize], old[l:l+CacheLineSize])
		if !isCur && !isOld {
			t.Fatalf("line %d is neither its new nor its last persistent contents", l/CacheLineSize)
		}
		if _, dirty := drv.m.lines[l/CacheLineSize]; dirty && !(isCur && isOld) {
			if isCur {
				kept++
			} else {
				reverted++
			}
		}
	}
	if kept == 0 || reverted == 0 {
		t.Fatalf("%d dirty lines kept, %d reverted: the coin never fell both ways", kept, reverted)
	}

	// CrashCopyInto a device that has been used — dirty and flushed lines,
	// a poisoned page, a persist hook, the stores, persists and repair an
	// engine's open and close leave — gives the image a fresh CrashCopy
	// gives, and keeps nothing of what was there.
	used := newTrackerDriver(8, 43)
	for used.d.DirtyLines() < 64 {
		used.step()
	}
	used.d.Poison(3 * PageSize)
	used.d.Poison(6 * PageSize)
	if err := used.d.RepairPage(6*PageSize, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	used.d.SetPersistHook(func() { t.Error("the image kept its old persist hook") })
	drv.d.Poison(5 * PageSize)
	for _, mode := range []CrashMode{CrashStrict, CrashEvictRandom} {
		fresh := drv.d.CrashCopy(mode, 7)
		drv.d.CrashCopyInto(used.d, mode, 7)
		if !bytes.Equal(used.d.Slice(0, size), fresh.Slice(0, size)) {
			t.Fatalf("mode %d: CrashCopyInto a used device differs from a fresh CrashCopy", mode)
		}
		for p := uint64(0); p < size; p += PageSize {
			if used.d.IsPoisoned(p) != fresh.IsPoisoned(p) {
				t.Fatalf("mode %d: page %d poisoned %v in the reused image, %v in a fresh one",
					mode, p/PageSize, used.d.IsPoisoned(p), fresh.IsPoisoned(p))
			}
		}
		if n := used.d.DirtyLines(); n != 0 {
			t.Fatalf("mode %d: the reused image has %d dirty lines", mode, n)
		}
		used.d.Fence()
	}

	// A tracked device loaded from a snapshot images the pages it loaded.
	var snap bytes.Buffer
	if err := drv.d.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(&snap, int64(snap.Len()), Options{TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	img := New(size, Options{TrackPersistence: true})
	loaded.CrashCopyInto(img, CrashStrict, 0)
	if !bytes.Equal(img.Slice(0, size), loaded.Slice(0, size)) {
		t.Fatal("the crash image of a loaded device differs from what it loaded")
	}
}

// BenchmarkTrackWriteFlushFence64 is the tracker's share of a small
// persistent store: one line captured, flushed and retired.
func BenchmarkTrackWriteFlushFence64(b *testing.B) {
	d := New(1<<20, Options{TrackPersistence: true})
	data := bytes.Repeat([]byte{0x5A}, CacheLineSize)
	b.SetBytes(CacheLineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) * 320 % (1 << 20) / CacheLineSize * CacheLineSize
		d.WriteAt(off, data)
		d.Flush(off, CacheLineSize)
		d.Fence()
	}
}

// BenchmarkTrackWrite4K is a page-sized write-back: 64 lines captured with
// one record, flushed and retired.
func BenchmarkTrackWrite4K(b *testing.B) {
	d := New(1<<20, Options{TrackPersistence: true})
	data := bytes.Repeat([]byte{0x5A}, PageSize)
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) * 5 * PageSize % (1 << 20)
		d.WriteNT(off, data)
		d.Fence()
	}
}
