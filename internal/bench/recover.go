package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/mbuf"
)

// Recover reproduces §4.6: error detection and correction. It injects
// hardware-style media errors and software scribbles, measures online
// repair latency per 4 KB page (the paper reports 180 µs on a 100 GB
// pool), and demonstrates canary detection of micro-buffer overruns.
func Recover(w io.Writer, cfg Config) error {
	const objSize = 1024
	const objs = 512
	pool, err := newPool(pangolin.ModePangolinMLPC, geoFor(objs*8*1024), pangolin.VerifyDefault)
	if err != nil {
		return err
	}
	defer pool.Close()
	oids := make([]pangolin.OID, objs)
	for i := range oids {
		err := pool.Run(func(tx *pangolin.Tx) error {
			oid, data, err := tx.Alloc(objSize, 1)
			if err != nil {
				return err
			}
			for j := range data {
				data[j] = byte(i + j)
			}
			oids[i] = oid
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Media-error repair latency: poison a page, read through it, check
	// content. Repeat across distinct pages.
	trials := min(cfg.Ops/10+5, 64)
	var totalRepair time.Duration
	for i := 0; i < trials; i++ {
		victim := oids[(i*17)%objs]
		pool.InjectMediaError(victim.Off)
		start := time.Now()
		data, err := pool.Get(victim)
		if err != nil {
			return fmt.Errorf("media-error recovery failed: %w", err)
		}
		totalRepair += time.Since(start)
		idx := (i * 17) % objs
		if data[0] != byte(idx) {
			return fmt.Errorf("recovered data wrong for object %d", idx)
		}
	}
	fmt.Fprintf(w, "\nSection 4.6 — error detection and correction\n")
	fmt.Fprintf(w, "media-error page repair: %v avg over %d pages (paper: ~180 us/page on 100 GB)\n",
		(totalRepair / time.Duration(trials)).Round(time.Microsecond), trials)

	// Scribble detection + repair at micro-buffer open.
	var totalScribble time.Duration
	for i := 0; i < trials; i++ {
		victim := oids[(i*29)%objs]
		pool.InjectScribble(victim.Off+64, 128, int64(i))
		start := time.Now()
		err := pool.Run(func(tx *pangolin.Tx) error {
			_, err := tx.Open(victim) // verify → detect → parity repair
			return err
		})
		if err != nil {
			return fmt.Errorf("scribble recovery failed: %w", err)
		}
		totalScribble += time.Since(start)
	}
	fmt.Fprintf(w, "scribble detect+repair at open: %v avg over %d objects\n",
		(totalScribble / time.Duration(trials)).Round(time.Microsecond), trials)

	// Canary detection of a buffer overrun (§3.2): the transaction must
	// abort without touching NVMM.
	obj, err := pangolin.OpenSingle[[objSize]byte](pool, oids[0])
	if err != nil {
		return err
	}
	over := obj.Data()
	over = over[:cap(over)]
	for i := objSize; i < len(over); i++ {
		over[i] = 0xBD // overrun past the object into the canary
	}
	err = obj.Commit()
	var ce *mbuf.CanaryError
	if !errors.As(err, &ce) {
		return fmt.Errorf("canary did not catch overrun: %w", err)
	}
	fmt.Fprintf(w, "micro-buffer canary: overrun detected, transaction aborted (%v)\n", err)

	// Whole-pool scrub throughput.
	start := time.Now()
	rep, err := pool.Scrub()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "full scrub: %d objects verified in %v (%+v)\n",
		rep.Objects, time.Since(start).Round(time.Microsecond), rep)
	return nil
}
