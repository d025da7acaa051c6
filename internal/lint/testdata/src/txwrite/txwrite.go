// Package txwrite seeds violations of the transaction write contract:
// Tx.Get hands out read-only snapshots, so every store must go through
// Open/AddRange, Commit's error must be checked, and a slice from
// Open/AddRange/Alloc dies with its transaction. The shapes mirror the
// real pangolin.Tx API.
package txwrite

// OID mirrors pangolin.OID.
type OID struct{ Off uint64 }

// Tx mirrors the pangolin transaction API shape the analyzer keys on.
type Tx struct{ buf []byte }

func (tx *Tx) Get(oid OID) ([]byte, error)                     { return tx.buf, nil }
func (tx *Tx) Open(oid OID) ([]byte, error)                    { return tx.buf, nil }
func (tx *Tx) AddRange(oid OID, off, n uint64) ([]byte, error) { return tx.buf, nil }
func (tx *Tx) Commit() error                                   { return nil }
func (tx *Tx) Abort()                                          {}
func (tx *Tx) Alloc(size uint64) (OID, []byte, error)          { return OID{}, tx.buf, nil }

// Pool mirrors pangolin.Pool's transaction runner.
type Pool struct{}

func (p *Pool) Begin() (*Tx, error)             { return &Tx{}, nil }
func (p *Pool) Run(fn func(tx *Tx) error) error { return fn(&Tx{}) }

// Open mirrors the typed pangolin.Open[T].
func Open[T any](tx *Tx, oid OID) (*T, error) { return new(T), nil }

func directWrite(tx *Tx, oid OID) error {
	b, err := tx.Get(oid)
	if err != nil {
		return err
	}
	b[0] = 1 // want `write to read-only Tx.Get snapshot "b"`
	return tx.Commit()
}

func builtinWrites(tx *Tx, oid OID, src []byte) error {
	b, err := tx.Get(oid)
	if err != nil {
		return err
	}
	copy(b, src)          // want `copy writes into read-only Tx.Get snapshot "b"`
	copy(b[4:], src)      // want `copy writes into read-only Tx.Get snapshot "b"`
	_ = append(b[:0], 42) // want `append writes into read-only Tx.Get snapshot "b"`
	clear(b)              // want `clear writes into read-only Tx.Get snapshot "b"`
	return tx.Commit()
}

func aliasedWrite(tx *Tx, oid OID) error {
	b, err := tx.Get(oid)
	if err != nil {
		return err
	}
	header := b[:8]
	header[0] = 0xFF // want `write to read-only Tx.Get snapshot "header"`
	return tx.Commit()
}

// reopenForWrite is the correct pattern: a later Open/AddRange rebinds
// the variable to a writable view and clears the taint.
func reopenForWrite(tx *Tx, oid OID) error {
	b, err := tx.Get(oid)
	if err != nil {
		return err
	}
	if b[0] == 0 {
		return nil
	}
	b, err = tx.Open(oid)
	if err != nil {
		return err
	}
	b[0] = 1
	v, err := tx.AddRange(oid, 0, 8)
	if err != nil {
		return err
	}
	v[7] = 2
	return tx.Commit()
}

func commitDiscarded(tx *Tx) {
	tx.Commit()     // want `Tx.Commit error discarded`
	_ = tx.Commit() // want `Tx.Commit error discarded`
}

func commitDeferred(tx *Tx) {
	defer tx.Commit() // want `Tx.Commit error discarded in defer`
}

func commitChecked(tx *Tx) error {
	if err := tx.Commit(); err != nil {
		return err
	}
	return nil
}

// scribble is an intentional violation: fault-injection tests corrupt
// snapshots on purpose, and document it in-code.
func scribble(tx *Tx, oid OID) error {
	b, err := tx.Get(oid)
	if err != nil {
		return err
	}
	//pgllint:ignore txwrite fault-injection test deliberately corrupts the snapshot
	b[0] ^= 0xFF
	return tx.Commit()
}

// undocumented suppressions are themselves flagged: the reason is
// mandatory.
func scribbleNoReason(tx *Tx, oid OID) error {
	b, err := tx.Get(oid)
	if err != nil {
		return err
	}
	//pgllint:ignore txwrite
	b[0] ^= 0xFF // want `write to read-only Tx.Get snapshot "b"` `missing its reason`
	return tx.Commit()
}

// Micro-buffers are recycled when their transaction ends: a slice from
// Open, AddRange or Alloc is dead after Commit or Abort.

func readAfterCommit(tx *Tx, oid OID) (byte, error) {
	b, err := tx.Open(oid)
	if err != nil {
		return 0, err
	}
	b[0] = 1
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return b[0], nil // want `"b" from Tx.Open used after the transaction's Commit`
}

func writeAfterAbort(tx *Tx, oid OID) {
	_, fresh, err := tx.Alloc(64)
	if err != nil {
		return
	}
	tail := fresh[8:]
	tx.Abort()
	tail[0] = 1 // want `"tail" from Tx.Alloc used after the transaction's Abort`
}

func typedAfterCommit(tx *Tx, oid OID) uint64 {
	v, err := Open[uint64](tx, oid)
	if err != nil {
		return 0
	}
	_ = tx.Commit() // want `Tx.Commit error discarded`
	return *v       // want `"v" from Tx.Open used after the transaction's Commit`
}

func escapesRun(p *Pool, oid OID) (byte, error) {
	var data []byte
	err := p.Run(func(tx *Tx) error {
		var err error
		data, err = tx.AddRange(oid, 0, 8)
		return err
	})
	return data[0], err // want `"data" from Tx.AddRange used after the transaction's Commit`
}

// The clean patterns: a value copied out before the end, an abort on a
// path that returns, and a new transaction in the same variable.
func copiedOut(tx *Tx, oid OID) (byte, error) {
	b, err := tx.Open(oid)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	v := b[0]
	b[0] = v + 1
	if err := tx.Commit(); err != nil {
		return 0, err
	}
	return v, nil
}

func abortOnErrorPath(tx *Tx, oid OID, bad bool) error {
	b, err := tx.AddRange(oid, 0, 8)
	if err != nil {
		return err
	}
	if bad {
		tx.Abort()
		return nil
	}
	b[0] = 1
	return tx.Commit()
}

func nextTransaction(p *Pool, oid OID) error {
	tx, err := p.Begin()
	if err != nil {
		return err
	}
	b, err := tx.Open(oid)
	if err != nil {
		return err
	}
	b[0] = 1
	tx.Abort()
	if tx, err = p.Begin(); err != nil {
		return err
	}
	if b, err = tx.Open(oid); err != nil {
		return err
	}
	b[0] = 2
	return tx.Commit()
}
