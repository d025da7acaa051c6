package pangolin

import (
	"fmt"

	"github.com/pangolin-go/pangolin/internal/mbuf"
)

// Obj is a single-object micro-buffer opened outside a transaction — the
// paper's pgl_open/pgl_commit programming model (Listing 2):
//
//	obj, _ := pangolin.OpenSingle[Node](pool, oid) // pgl_open
//	obj.Value().Count++                            // mutate the DRAM shadow
//	err := obj.Commit()                            // pgl_commit
//
// Commit atomically updates the NVMM object, its checksum, and parity; the
// modified ranges are discovered by diffing against the image OpenSingle
// verified, so no AddRange calls are needed. Discarding the Obj without Commit abandons the changes.
type Obj[T any] struct {
	pool *Pool
	buf  *mbuf.Buf
	orig []byte // the image OpenSingle verified, which Commit diffs against
	v    *T
	done bool
}

// OpenSingle opens an object into a standalone micro-buffer with integrity
// verification (pgl_open).
func OpenSingle[T any](p *Pool, oid OID) (*Obj[T], error) {
	b, orig, err := p.e.OpenSingle(oid)
	if err != nil {
		return nil, err
	}
	v, err := View[T](b.UserData())
	if err != nil {
		return nil, err
	}
	return &Obj[T]{pool: p, buf: b, orig: orig, v: v}, nil
}

// Value returns the typed view of the buffered object.
func (o *Obj[T]) Value() *T { return o.v }

// Data returns the buffered user data bytes.
func (o *Obj[T]) Data() []byte { return o.buf.UserData() }

// OID returns the underlying object identifier.
func (o *Obj[T]) OID() OID { return o.buf.OID }

// Commit atomically writes the modified parts of the buffer back to NVMM
// (pgl_commit). The Obj must not be used afterwards.
func (o *Obj[T]) Commit() error {
	if o.done {
		return fmt.Errorf("pangolin: object already committed")
	}
	o.done = true
	return o.pool.e.CommitSingle(o.buf, o.orig)
}
