package core

import (
	"bytes"
	"testing"

	"github.com/pangolin-go/pangolin/internal/layout"
)

// TestQuiescentAfterEveryStep: once a pool call returns, every line it
// stored is flushed and fenced — the device holds no dirty line after
// create, each kind of commit (alloc, update, free, root), an abort of an
// update and of an alloc, a scrub pass, and, in the parity modes, an
// online repair. A crash between two calls then loses nothing a call
// reported done, and a device that keeps no persistence tracking (a
// served shard) can be saved at any of these points as its crash image.
//
// The media error is injected in the parity modes only: nvm.Poison zeroes
// the page through a tracked store, so a page no mode can repair online
// stays dirty (64 lines) — an artifact of the injector, not a missing
// flush.
func TestQuiescentAfterEveryStep(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			e := mkEngine(t, mode)
			quiet := func(step string) {
				t.Helper()
				if n := e.Device().DirtyLines(); n != 0 {
					t.Fatalf("after %s: %d dirty lines", step, n)
				}
			}
			quiet("create")

			payload := []byte("quiescent payload")
			var oid, gone layout.OID
			if err := e.Run(func(tx *Tx) error {
				var data []byte
				var err error
				if oid, data, err = tx.Alloc(200, 1); err != nil {
					return err
				}
				copy(data, payload)
				gone, _, err = tx.Alloc(64, 2)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			quiet("alloc commit")

			if err := e.Run(func(tx *Tx) error {
				data, err := tx.AddRange(oid, 100, 8)
				if err != nil {
					return err
				}
				copy(data[100:], "updated!")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			quiet("update commit")

			if err := e.Run(func(tx *Tx) error { return tx.Free(gone) }); err != nil {
				t.Fatal(err)
			}
			quiet("free commit")

			if _, err := e.Root(64, 3); err != nil {
				t.Fatal(err)
			}
			quiet("root commit")

			tx, err := e.Begin()
			if err != nil {
				t.Fatal(err)
			}
			data, err := tx.AddRange(oid, 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			copy(data, "aborted!")
			tx.Abort()
			quiet("update abort")

			if tx, err = e.Begin(); err != nil {
				t.Fatal(err)
			}
			if _, data, err = tx.Alloc(64, 4); err != nil {
				t.Fatal(err)
			}
			copy(data, "aborted!")
			tx.Abort()
			quiet("alloc abort")

			if _, err := e.Scrub(); err != nil {
				t.Fatal(err)
			}
			quiet("scrub")

			if !mode.Parity() {
				return
			}
			e.InjectMediaError(oid.Off)
			got, err := e.Get(oid)
			if err != nil {
				t.Fatalf("online repair: %v", err)
			}
			if !bytes.Equal(got[:len(payload)], payload) || string(got[100:108]) != "updated!" {
				t.Fatalf("repaired object reads %q", got[:108])
			}
			quiet("online repair")
		})
	}
}
