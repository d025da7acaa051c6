package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"github.com/pangolin-go/pangolin"
)

// Fig4 reproduces Figure 4: throughput of concurrent random overwrites
// across object sizes and thread counts, per mode. Shape targets:
// Pangolin-MLP scales at least as well as Pmemobj-R above 64 B (atomic
// parity XOR under shared range-locks admits arbitrary concurrency); at
// 64 B the freeze-flag check costs Pangolin a few percent.
func Fig4(w io.Writer, cfg Config) error {
	for _, size := range cfg.Sizes {
		t := &Table{Header: append([]string{"threads"}, modeNames()...)}
		for _, threads := range cfg.Threads {
			row := []string{fmt.Sprintf("%d", threads)}
			for _, mode := range pangolin.Modes() {
				kops, err := fig4Cell(mode, size, threads, cfg.Ops)
				if err != nil {
					return fmt.Errorf("fig4 %v %dB %dthr: %w", mode, size, threads, err)
				}
				row = append(row, kops)
			}
			t.Add(row...)
		}
		fmt.Fprintf(w, "\nFigure 4 — concurrent overwrite throughput, %d B objects (Kops/s)\n", size)
		t.Print(w)
	}
	return nil
}

// fig4Cell: each thread owns a private set of objects and overwrites them
// in random order (two transactions never modify the same object, per the
// §3.4 contract).
func fig4Cell(mode pangolin.Mode, size uint64, threads, opsPerThread int) (string, error) {
	perThread := 32
	need := (size + 64*1024) * uint64(threads*perThread)
	pool, err := newPool(mode, geoFor(need), pangolin.VerifyDefault)
	if err != nil {
		return "", err
	}
	defer pool.Close()

	oids := make([][]pangolin.OID, threads)
	for t := range oids {
		oids[t] = make([]pangolin.OID, perThread)
		for i := range oids[t] {
			err := pool.Run(func(tx *pangolin.Tx) error {
				var err error
				oids[t][i], _, err = tx.Alloc(size, 1)
				return err
			})
			if err != nil {
				return "", err
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(t)))
			buf := make([]byte, size)
			for i := 0; i < opsPerThread; i++ {
				oid := oids[t][rng.Intn(perThread)]
				buf[0] = byte(i)
				err := pool.Run(func(tx *pangolin.Tx) error {
					data, err := tx.AddRange(oid, 0, size)
					if err != nil {
						return err
					}
					copy(data, buf)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		return "", err
	}
	return fmtKops(threads*opsPerThread, elapsed), nil
}
