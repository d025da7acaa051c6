package xor

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeltaAndInto(t *testing.T) {
	old := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	new_ := []byte{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	d := make([]byte, len(old))
	Delta(d, old, new_)
	// old ^ delta == new
	got := append([]byte(nil), old...)
	Into(got, d)
	if !bytes.Equal(got, new_) {
		t.Fatalf("old^delta = %v, want %v", got, new_)
	}
}

func TestDeltaAliasing(t *testing.T) {
	old := []byte{1, 2, 3}
	new_ := []byte{4, 5, 6}
	d := append([]byte(nil), old...)
	Delta(d, d, new_) // dst aliases old
	want := []byte{1 ^ 4, 2 ^ 5, 3 ^ 6}
	if !bytes.Equal(d, want) {
		t.Fatalf("aliased delta = %v, want %v", d, want)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for i, f := range []func(){
		func() { Delta(make([]byte, 2), make([]byte, 3), make([]byte, 3)) },
		func() { Delta(make([]byte, 3), make([]byte, 2), make([]byte, 3)) },
		func() { Into(make([]byte, 2), make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: XOR identities hold for arbitrary data: (a⊕b)⊕b = a and
// Delta composition is associative with Into.
func TestXorIdentities(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16%1024) + 1
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		d := make([]byte, n)
		Delta(d, a, b)
		got := append([]byte(nil), a...)
		Into(got, d)
		if !bytes.Equal(got, b) {
			return false
		}
		Into(got, d)
		return bytes.Equal(got, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
