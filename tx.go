package pangolin

import "github.com/pangolin-go/pangolin/internal/core"

// Tx is a transaction over a pool. The API mirrors the paper's Table 1:
// Alloc/Free (pgl_tx_alloc/free), Open (pgl_tx_open), AddRange
// (pgl_tx_add_range), Get (pgl_get), Commit/Abort.
//
// In Pangolin modes, Open and AddRange hand out views of the
// transaction's private DRAM micro-buffer; nothing reaches NVMM until
// Commit, which atomically updates the object, its checksum, and zone
// parity. In pmemobj modes, writes go to NVMM in place under undo
// logging, reproducing the baseline's (lack of) protection.
type Tx struct {
	t    *core.Tx
	pool *Pool
}

// Alloc allocates an object with size bytes of user data, returning its
// OID and the user-data bytes to initialize.
func (tx *Tx) Alloc(size uint64, typ uint32) (OID, []byte, error) {
	return tx.t.Alloc(size, typ)
}

// Free deallocates an object at commit.
func (tx *Tx) Free(oid OID) error { return tx.t.Free(oid) }

// Open gives write access to an object's user data (micro-buffered in
// Pangolin modes, with checksum verification on first open). Declare a
// range with AddRange before writing it: Commit folds the bytes the
// declaration kept, not whatever NVMM holds at commit time.
func (tx *Tx) Open(oid OID) ([]byte, error) { return tx.t.Open(oid) }

// AddRange declares bytes [off, off+n) of the object's user data as
// modified and returns the full user-data view. Declare, then write, as
// with pmemobj_tx_add_range: in Pangolin modes the declaration keeps the
// range's verified bytes as its first image, the old side of the
// commit's checksum refresh and parity delta.
func (tx *Tx) AddRange(oid OID, off, n uint64) ([]byte, error) {
	return tx.t.AddRange(oid, off, n)
}

// Get returns read-only access to an object (the transaction's own
// micro-buffer if it has one open).
func (tx *Tx) Get(oid OID) ([]byte, error) { return tx.t.Get(oid) }

// Commit makes the transaction durable and applies it (§3.4). In
// Pangolin modes the checksum refresh and the parity delta fold the
// declared ranges' first images, never bytes read back from NVMM. The
// transaction's micro-buffers are then recycled: a slice Alloc, Open or
// AddRange returned must not be used after Commit or Abort (pgllint's
// txwrite flags one that is).
func (tx *Tx) Commit() error { return tx.t.Commit() }

// Abort discards the transaction; in Pangolin modes NVMM is untouched.
// Its micro-buffers are recycled, as at Commit.
func (tx *Tx) Abort() { tx.t.Abort() }
