// Command pglpool administers Pangolin pool snapshot files: create,
// inspect, check (scrub), and fault-inject — the pmempool analog for the
// simulated NVMM substrate.
//
// Usage:
//
//	pglpool create [-mode M] [-zones N] <file>
//	pglpool info <file>
//	pglpool check <file>             verify checksums + parity, repair
//	pglpool inject -page OFF <file>  poison the page at offset OFF
//	pglpool inject -scribble OFF -len N <file>
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/pangolin-go/pangolin"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "create":
		err = create(args)
	case "info":
		err = info(args)
	case "check":
		err = check(args)
	case "inject":
		err = inject(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pglpool %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pglpool {create|info|check|inject} [flags] <file>")
	os.Exit(2)
}

// openPool loads a pool snapshot, trying each mode until the header
// matches (the mode is stored in the pool header). A Pmemobj-R pool needs
// its replica device, so it is never a snapshot file.
func openPool(path string) (*pangolin.Pool, pangolin.Mode, error) {
	var lastErr error
	for _, m := range pangolin.Modes() {
		if m.ReplicaPool() {
			continue
		}
		p, err := pangolin.LoadFile(path, pangolin.Config{Mode: m})
		if err == nil {
			return p, m, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func create(args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	mode := fs.String("mode", "pangolin-mlpc", "operation mode")
	zones := fs.Uint64("zones", 2, "number of zones")
	paper := fs.Bool("paper", false, "use the paper's 100-row zone geometry (~1% parity)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	m, err := pangolin.ParseMode(*mode)
	if err != nil || m.ReplicaPool() {
		return fmt.Errorf("unknown mode %q (pmemobj-r pools cannot be snapshot files)", *mode)
	}
	geo := pangolin.DefaultGeometry()
	if *paper {
		geo = pangolin.PaperGeometry(*zones)
	}
	geo.NumZones = *zones
	p, err := pangolin.Create(pangolin.Config{Mode: m, Geometry: geo})
	if err != nil {
		return err
	}
	defer p.Close()
	if err := p.SaveFile(fs.Arg(0)); err != nil {
		return err
	}
	fmt.Printf("created %s pool (%d zones, %d B) at %s\n",
		m, geo.NumZones, geo.PoolSize(), fs.Arg(0))
	return nil
}

func info(args []string) error {
	if len(args) != 1 {
		usage()
	}
	p, mode, err := openPool(args[0])
	if err != nil {
		return err
	}
	defer p.Close()
	alloc := p.LiveObjects()
	fmt.Printf("pool:        %s\nmode:        %v\nuuid:        %#x\nsize:        %d B\nlive objects: %d\nlive bytes:   %d\n",
		args[0], mode, p.UUID(), p.Device().Size(), alloc.Objects, alloc.Bytes)
	return nil
}

func check(args []string) error {
	if len(args) != 1 {
		usage()
	}
	p, mode, err := openPool(args[0])
	if err != nil {
		return err
	}
	defer p.Close()
	if !mode.Checksums() && !mode.Parity() {
		fmt.Printf("mode %v maintains no redundancy; nothing to check\n", mode)
		return nil
	}
	rep, err := p.Scrub()
	if err != nil {
		return err
	}
	// "0 bad objects" in a checksum-less mode means "not checked", not
	// "verified clean" — say which one this is.
	verified := "checksums verified"
	if !rep.ChecksumsVerified {
		verified = fmt.Sprintf("checksums NOT verified (mode %v maintains none)", mode)
	}
	fmt.Printf("scrub: %d objects, %d bad, %d repaired, %d unrecovered, %d parity fixes, %d pages healed, %d pages unrecoverable, %s\n",
		rep.Objects, rep.BadObjects, rep.Repaired, rep.Unrecovered, rep.ParityFixes, rep.PagesHealed, rep.PagesUnrecovered, verified)
	if err := p.SaveFile(args[0]); err != nil {
		return err
	}
	if rep.Unrecovered > 0 || rep.PagesUnrecovered > 0 {
		return fmt.Errorf("%d objects and %d pages unrecoverable", rep.Unrecovered, rep.PagesUnrecovered)
	}
	return nil
}

func inject(args []string) error {
	fs := flag.NewFlagSet("inject", flag.ExitOnError)
	page := fs.Int64("page", -1, "poison the page containing this offset")
	scribble := fs.Int64("scribble", -1, "scribble starting at this offset")
	n := fs.Uint64("len", 64, "scribble length")
	seed := fs.Int64("seed", 1, "scribble randomness seed")
	fs.Parse(args)
	if fs.NArg() != 1 || (*page < 0 && *scribble < 0) {
		usage()
	}
	p, _, err := openPool(fs.Arg(0))
	if err != nil {
		return err
	}
	defer p.Close()
	size := p.Device().Size()
	if *page >= 0 {
		if err := checkRange(size, uint64(*page), 1); err != nil {
			return err
		}
	}
	if *scribble >= 0 {
		if err := checkRange(size, uint64(*scribble), *n); err != nil {
			return err
		}
	}
	if *page >= 0 {
		p.InjectMediaError(uint64(*page))
		fmt.Printf("poisoned page at %#x\n", *page)
	}
	if *scribble >= 0 {
		p.InjectScribble(uint64(*scribble), *n, *seed)
		fmt.Printf("scribbled %d bytes at %#x\n", *n, *scribble)
	}
	return p.SaveFile(fs.Arg(0))
}

// checkRange refuses an injection into [off, off+n) unless it lies inside
// the pool's size bytes; off+n may not wrap.
func checkRange(size, off, n uint64) error {
	if off >= size || n > size-off {
		return fmt.Errorf("offset %#x length %d is outside the %#x-byte pool", off, n, size)
	}
	return nil
}
