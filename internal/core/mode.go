// Package core implements the Pangolin engine: fault-tolerant,
// crash-consistent transactions over a simulated NVMM pool, together with
// the libpmemobj-style baselines the paper evaluates against (Table 2).
//
// The engine composes the substrates: nvm (media + persistence model),
// layout (pool format), alloc (persistent heap), logrec (redo/undo lanes),
// parity (zone parity), csum (object checksums) and mbuf (micro-buffers).
package core

import (
	"fmt"

	"github.com/pangolin-go/pangolin/internal/layout"
)

// Mode selects the library operation mode of Table 2 of the paper.
type Mode int

const (
	// Pmemobj is the libpmemobj baseline: undo logging with direct
	// in-place NVMM writes and no fault tolerance.
	Pmemobj Mode = iota
	// Pangolin is the micro-buffering baseline: redo logging through
	// DRAM shadows with canary protection, but no replication, parity,
	// or checksums.
	Pangolin
	// PangolinML adds metadata and redo-log replication.
	PangolinML
	// PangolinMLP adds zone parity for user objects.
	PangolinMLP
	// PangolinMLPC adds per-object checksums: the full system and the
	// default.
	PangolinMLPC
	// PmemobjR is libpmemobj with a full replica pool (100% space
	// overhead), the paper's fault-tolerant comparison point.
	PmemobjR
)

// Modes returns the six operation modes in Table 2 order.
func Modes() []Mode {
	return []Mode{Pmemobj, Pangolin, PangolinML, PangolinMLP, PangolinMLPC, PmemobjR}
}

// String returns the paper's abbreviation for the mode.
func (m Mode) String() string {
	switch m {
	case Pmemobj:
		return "Pmemobj"
	case Pangolin:
		return "Pangolin"
	case PangolinML:
		return "Pangolin-ML"
	case PangolinMLP:
		return "Pangolin-MLP"
	case PangolinMLPC:
		return "Pangolin-MLPC"
	case PmemobjR:
		return "Pmemobj-R"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MicroBuffered reports whether transactions shadow objects in DRAM
// micro-buffers (all Pangolin modes) rather than writing NVMM in place.
func (m Mode) MicroBuffered() bool {
	return m == Pangolin || m == PangolinML || m == PangolinMLP || m == PangolinMLPC
}

// ReplicateMeta reports whether pool metadata and transaction logs are
// replicated ("+ML").
func (m Mode) ReplicateMeta() bool {
	return m == PangolinML || m == PangolinMLP || m == PangolinMLPC
}

// Parity reports whether zone parity is maintained ("+P"). Only
// micro-buffered modes keep it: the redo commit is the one path that
// folds parity.
func (m Mode) Parity() bool { return m == PangolinMLP || m == PangolinMLPC }

// Checksums reports whether object checksums are maintained ("+C").
func (m Mode) Checksums() bool { return m == PangolinMLPC }

// ReplicaPool reports whether a full replica device mirrors the pool
// (Pmemobj-R).
func (m Mode) ReplicaPool() bool { return m == PmemobjR }

// flagMicroBuf complements the layout flags so the mode round-trips
// through the pool header.
const flagMicroBuf uint32 = 1 << 16

// headerFlags encodes the mode into pool-header feature flags.
func headerFlags(m Mode) uint32 {
	var f uint32
	if m.MicroBuffered() {
		f |= flagMicroBuf
	}
	if m.ReplicateMeta() {
		f |= layout.FlagReplicateMeta
	}
	if m.Parity() {
		f |= layout.FlagParity
	}
	if m.Checksums() {
		f |= layout.FlagChecksums
	}
	if m.ReplicaPool() {
		f |= layout.FlagReplicaPool
	}
	return f
}

// modeFromFlags recovers the mode from pool-header flags.
func modeFromFlags(f uint32) (Mode, error) {
	for _, m := range Modes() {
		if headerFlags(m) == f {
			return m, nil
		}
	}
	return 0, fmt.Errorf("core: unknown mode flags %#x", f)
}

// VerifyPolicy selects when object checksums are verified (§3.3).
type VerifyPolicy int

const (
	// VerifyDefault checks an object's checksum when its micro-buffer is
	// created, before any modification, and on the first read-only Get or
	// GetRO after each modification: a read verifies only what a commit
	// changed since the last verification.
	VerifyDefault VerifyPolicy = iota
	// VerifyConservative verifies on every access, including every
	// read-only Get and GetRO.
	VerifyConservative
)

// Options configures an engine.
type Options struct {
	Mode   Mode
	Policy VerifyPolicy
	// Zero forces zeroing the device at create time — required when the
	// device may hold prior contents, and the §4.2 pool-init cost.
	Zero bool
}
