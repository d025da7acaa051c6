package csum

import (
	"bytes"
	"hash/adler32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdlerMatchesStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},
		{255},
		[]byte("hello, pangolin"),
		bytes.Repeat([]byte{0xFF}, maxChunk+4321), // worst-case bytes across a chunked reduction
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		b := make([]byte, rng.Intn(20000))
		rng.Read(b)
		cases = append(cases, b)
	}
	for i, c := range cases {
		if got, want := Adler32(c), adler32.Checksum(c); got != want {
			t.Fatalf("case %d (len %d): Adler32 = %#x, stdlib = %#x", i, len(c), got, want)
		}
	}
}

// stdlibContinue is Continue by definition: the stdlib digest resumed from
// sum's (a, b) state.
func stdlibContinue(sum uint32, data []byte) uint32 {
	d := adler32.New()
	state := []byte{'a', 'd', 'l', 0x01, byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)}
	if err := d.(interface{ UnmarshalBinary([]byte) error }).UnmarshalBinary(state); err != nil {
		panic(err)
	}
	d.Write(data)
	return d.Sum32()
}

// TestContinueMatchesStdlib is the block kernel's differential test:
// random lengths (so every tail length 0..31 follows every block count),
// random start offsets into the buffer (so the 8-byte loads are unaligned
// every way), random contents including the all-0xFF worst case, and a
// random valid starting state.
func TestContinueMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 70000)
	for round := 0; round < 3000; round++ {
		off := rng.Intn(64)
		n := rng.Intn(300)
		if round%10 == 0 {
			n = rng.Intn(len(buf) - off)
		}
		data := buf[off : off+n]
		if round%7 == 0 {
			for i := range data {
				data[i] = 0xFF
			}
		} else {
			rng.Read(data)
		}
		sum := uint32(rng.Intn(adlerMod))<<16 | uint32(rng.Intn(adlerMod))
		if got, want := Continue(sum, data), stdlibContinue(sum, data); got != want {
			t.Fatalf("round %d: Continue(%#x, len %d at +%d) = %#x, stdlib %#x", round, sum, n, off, got, want)
		}
	}
}

// TestContinueSplits checks streaming concatenation at every split of a
// buffer a few blocks long.
func TestContinueSplits(t *testing.T) {
	data := make([]byte, 200)
	rand.New(rand.NewSource(9)).Read(data)
	want := adler32.Checksum(data)
	for i := 0; i <= len(data); i++ {
		if got := Continue(Adler32(data[:i]), data[i:]); got != want {
			t.Fatalf("split at %d: %#x, want %#x", i, got, want)
		}
	}
}

func FuzzContinue(f *testing.F) {
	f.Add(uint32(1), []byte("hello, pangolin"))
	f.Add(uint32(0xfff0fff0), bytes.Repeat([]byte{0xFF}, 97))
	f.Add(uint32(0x12345678), make([]byte, 33))
	f.Fuzz(func(t *testing.T, sum uint32, data []byte) {
		sum = sum>>16%adlerMod<<16 | sum&0xffff%adlerMod // a valid state
		if got, want := Continue(sum, data), stdlibContinue(sum, data); got != want {
			t.Fatalf("Continue(%#x, %x) = %#x, stdlib %#x", sum, data, got, want)
		}
	})
}

func TestUpdateBasic(t *testing.T) {
	buf := []byte("the quick brown fox jumps over the lazy dog")
	sum := Adler32(buf)
	mod := append([]byte(nil), buf...)
	copy(mod[4:9], "slow!")
	got := Update(sum, uint64(len(buf)), 4, buf[4:9], mod[4:9])
	if want := Adler32(mod); got != want {
		t.Fatalf("Update = %#x, full recompute = %#x", got, want)
	}
}

func TestUpdateWholeBuffer(t *testing.T) {
	old := bytes.Repeat([]byte{1}, 333)
	new_ := bytes.Repeat([]byte{200}, 333)
	sum := Adler32(old)
	got := Update(sum, 333, 0, old, new_)
	if want := Adler32(new_); got != want {
		t.Fatalf("Update = %#x, want %#x", got, want)
	}
}

func TestUpdateEmptyRange(t *testing.T) {
	buf := []byte("unchanged")
	sum := Adler32(buf)
	if got := Update(sum, uint64(len(buf)), 3, nil, nil); got != sum {
		t.Fatalf("empty-range update changed sum: %#x vs %#x", got, sum)
	}
}

func TestUpdatePanicsOnMismatchedLengths(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Update(0, 10, 0, []byte{1, 2}, []byte{1})
}

func TestUpdatePanicsOnRangeOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Update(0, 4, 3, []byte{1, 2}, []byte{3, 4})
}

// Property P6 (DESIGN.md): incremental range update equals a full
// recomputation for arbitrary buffers and ranges.
func TestUpdateEqualsRecompute(t *testing.T) {
	f := func(seed int64, lenHint uint16, offHint, rangeHint uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(lenHint%8192) + 1
		buf := make([]byte, n)
		rng.Read(buf)
		off := int(offHint) % n
		m := int(rangeHint) % (n - off)
		old := append([]byte(nil), buf[off:off+m]...)
		mod := append([]byte(nil), buf...)
		rng.Read(mod[off : off+m])
		got := Update(Adler32(buf), uint64(n), uint64(off), old, mod[off:off+m])
		return got == Adler32(mod)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Chained updates must compose: applying two successive range updates gives
// the checksum of the final buffer. This is exactly how a transaction with
// multiple modified ranges refreshes an object's checksum.
func TestUpdateComposes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4096) + 64
		buf := make([]byte, n)
		rng.Read(buf)
		sum := Adler32(buf)
		cur := append([]byte(nil), buf...)
		for step := 0; step < 4; step++ {
			off := rng.Intn(n)
			m := rng.Intn(n - off)
			old := append([]byte(nil), cur[off:off+m]...)
			rng.Read(cur[off : off+m])
			sum = Update(sum, uint64(n), uint64(off), old, cur[off:off+m])
		}
		return sum == Adler32(cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateLargeBufferSmallRange(t *testing.T) {
	// The whole point: a small edit in a large object must not require
	// rescanning the object. Verify correctness at a size where it
	// matters (rtree-scale, 4 KB+).
	buf := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(7))
	rng.Read(buf)
	sum := Adler32(buf)
	mod := append([]byte(nil), buf...)
	copy(mod[999000:999016], "sixteen bytes!!!")
	got := Update(sum, uint64(len(buf)), 999000, buf[999000:999016], mod[999000:999016])
	if want := Adler32(mod); got != want {
		t.Fatalf("Update = %#x, want %#x", got, want)
	}
}

func TestCRC32Known(t *testing.T) {
	// CRC32C("123456789") = 0xE3069283, the canonical check value.
	if got := CRC32([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("CRC32C check value = %#x, want 0xE3069283", got)
	}
}

func BenchmarkAdlerFull4K(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Adler32(buf)
	}
}

func BenchmarkAdlerUpdate64of4K(b *testing.B) {
	buf := make([]byte, 4096)
	sum := Adler32(buf)
	old := buf[1000:1064]
	new_ := bytes.Repeat([]byte{9}, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		Update(sum, 4096, 1000, old, new_)
	}
}
