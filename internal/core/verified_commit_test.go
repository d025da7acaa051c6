package core

import (
	"bytes"
	"testing"

	"github.com/pangolin-go/pangolin/internal/layout"
)

// A scribble that lands between Open (which verified the object) and
// Commit must not reach the object's checksum or its zone's parity: a
// commit folds the first images its micro-buffer verified, never bytes
// read back from NVMM (§3.2–3.3, §3.5). These tests scribble inside that
// window and check the committed object and its parity afterwards.

// seeded commits a 1,000-byte object whose byte i holds i.
func seeded(t *testing.T, e *Engine) layout.OID {
	t.Helper()
	var oid layout.OID
	if err := e.Run(func(tx *Tx) error {
		var data []byte
		var err error
		oid, data, err = tx.Alloc(1000, 1)
		for i := range data {
			data[i] = byte(i)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}

// scribbledOverwrite opens oid, scribbles [scribOff, scribOff+scribN) of
// its user data, then declares [8,24), fills it with 0xEE and commits.
func scribbledOverwrite(t *testing.T, e *Engine, oid layout.OID, scribOff, scribN uint64) {
	t.Helper()
	tx, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Open(oid); err != nil {
		t.Fatal(err)
	}
	e.InjectScribble(oid.Off+scribOff, scribN, 7)
	data, err := tx.AddRange(oid, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[8:24], bytes.Repeat([]byte{0xEE}, 16))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// wantOverwritten checks got holds the seeded bytes with [8,24) = 0xEE.
func wantOverwritten(t *testing.T, got []byte) {
	t.Helper()
	for i := range 1000 {
		want := byte(i)
		if i >= 8 && i < 24 {
			want = 0xEE
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x (% x)", i, got[i], want, got[:32])
		}
	}
}

func TestCommitFoldsVerifiedBytes(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	oid := seeded(t, e)
	scribbledOverwrite(t, e, oid, 8, 16)
	verifyParity(t, e)
	got, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	wantOverwritten(t, got)
	verifyChecksums(t, e)
}

// Without checksums the scribble goes unseen, but parity must still hold
// the committed bytes: a media error on the page rebuilds them.
func TestCommitFoldsVerifiedBytesUnderMediaError(t *testing.T) {
	e := mkEngine(t, PangolinMLP)
	oid := seeded(t, e)
	scribbledOverwrite(t, e, oid, 8, 16)
	verifyParity(t, e)
	e.InjectMediaError(oid.Off)
	got, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	wantOverwritten(t, got)
}

// A scribble reaching past the declared range leaves undeclared bytes
// wrong on media. The commit's checksum and parity describe the verified
// object, so the next read detects the damage and repairs it.
func TestCommitFoldsAroundScribbledRange(t *testing.T) {
	e := mkEngine(t, PangolinMLPC)
	oid := seeded(t, e)
	scribbledOverwrite(t, e, oid, 0, 40)
	recovered := e.stats.Recovered.Load()
	got, err := e.Get(oid)
	if err != nil {
		t.Fatal(err)
	}
	wantOverwritten(t, got)
	if e.stats.Recovered.Load() == recovered {
		t.Fatal("the scribbled bytes were served without a repair")
	}
	verifyParity(t, e)
	verifyChecksums(t, e)
}

// CommitSingle diffs the buffer against the image OpenSingle verified,
// so a scribble in the window is neither mistaken for a modification nor
// folded into parity.
func TestCommitFoldsSingleVerifiedImage(t *testing.T) {
	for _, mode := range []Mode{PangolinMLPC, PangolinMLP} {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			oid := seeded(t, e)
			b, orig, err := e.OpenSingle(oid)
			if err != nil {
				t.Fatal(err)
			}
			copy(b.UserData()[8:24], bytes.Repeat([]byte{0xEE}, 16))
			e.InjectScribble(oid.Off+100, 16, 7)
			if err := e.CommitSingle(b, orig); err != nil {
				t.Fatal(err)
			}
			if mode.Checksums() {
				// The next read detects the scribble and repairs it.
				got, err := e.Get(oid)
				if err != nil {
					t.Fatal(err)
				}
				wantOverwritten(t, got)
				verifyParity(t, e)
				verifyChecksums(t, e)
				return
			}
			e.InjectMediaError(oid.Off)
			got, err := e.Get(oid)
			if err != nil {
				t.Fatal(err)
			}
			wantOverwritten(t, got)
		})
	}
}
