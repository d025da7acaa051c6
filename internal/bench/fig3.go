package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/pangolin-go/pangolin"
)

// Fig3 reproduces Figure 3: single-object transaction latency for
// allocation, overwrite, and deallocation across object sizes and all six
// modes. The paper's shape targets: Pangolin ≈ Pmemobj; Pangolin-MLP
// beats Pmemobj-R except on tiny overwrites; checksums (MLPC) add < ~7%
// over MLP.
func Fig3(w io.Writer, cfg Config) error {
	for _, op := range []string{"alloc", "overwrite", "free"} {
		t := &Table{Header: append([]string{"size(B)"}, modeNames()...)}
		for _, size := range cfg.Sizes {
			row := []string{fmt.Sprintf("%d", size)}
			for _, mode := range pangolin.Modes() {
				d, err := fig3Cell(mode, op, size, cfg.Ops)
				if err != nil {
					return fmt.Errorf("fig3 %s %s %d: %w", mode, op, size, err)
				}
				row = append(row, fmtNs(d, cfg.Ops))
			}
			t.Add(row...)
		}
		fmt.Fprintf(w, "\nFigure 3 — %s latency (us/op)\n", op)
		t.Print(w)
	}
	return nil
}

func modeNames() []string {
	var names []string
	for _, m := range pangolin.Modes() {
		names = append(names, m.String())
	}
	return names
}

// fig3Cell measures one (mode, op, size) cell: ops transactions, each
// touching one object of the given size.
func fig3Cell(mode pangolin.Mode, op string, size uint64, ops int) (time.Duration, error) {
	need := (size + 64*1024) * uint64(ops) // generous: slot rounding + metadata
	pool, err := newPool(mode, geoFor(need), pangolin.VerifyDefault)
	if err != nil {
		return 0, err
	}
	defer pool.Close()

	oids := make([]pangolin.OID, ops)
	alloc := func() error {
		for i := range oids {
			err := pool.Run(func(tx *pangolin.Tx) error {
				oid, data, err := tx.Alloc(size, 1)
				if err != nil {
					return err
				}
				data[0] = byte(i) // touch the object like a real constructor
				data[len(data)-1] = byte(i)
				oids[i] = oid
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	switch op {
	case "alloc":
		start := time.Now()
		if err := alloc(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	case "overwrite":
		if err := alloc(); err != nil {
			return 0, err
		}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = 0xC3
		}
		start := time.Now()
		for i := range oids {
			err := pool.Run(func(tx *pangolin.Tx) error {
				data, err := tx.AddRange(oids[i], 0, size)
				if err != nil {
					return err
				}
				copy(data, buf)
				return nil
			})
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	case "free":
		if err := alloc(); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := range oids {
			if err := pool.Run(func(tx *pangolin.Tx) error { return tx.Free(oids[i]) }); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}
