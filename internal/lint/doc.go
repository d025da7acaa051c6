// Package lint implements pgllint, a suite of analyzers that
// machine-checks the persistence and concurrency invariants this
// codebase depends on but the Go compiler cannot see.
//
// Pangolin's correctness rests on discipline: every write inside a
// transaction must go through a logged view so commit can update the
// object, its checksum, and zone parity together (the paper's §4
// contract); typed errors must stay matchable through wraps; and
// iteration callbacks must honor their stop signal. Each rule is spread
// over many call sites in several packages, and review-fix commits for
// hand-found violations of each once shipped. View-Based
// Owicki-Gries Reasoning for Persistent x86-TSO shows persistency
// invariants are precise enough to check mechanically, and FliT shows
// a tiny annotation/flag discipline suffices to catch missed-persist
// bugs; these analyzers encode the same ideas at review time, so those
// bug classes cannot come back silently.
//
// # The rules
//
// txwrite — undeclared stores to pmem objects. Tx.Get returns a
// read-only snapshot; writes must go through Tx.Open or Tx.AddRange so
// they are logged and covered by checksum + parity on commit. Element
// writes, copy/append/clear through a Get-derived slice, and discarded
// Tx.Commit errors are flagged. Bug class: silent checksum/parity
// corruption — the §4 contract the whole fault model rests on. A
// transaction's micro-buffers are recycled when it ends, so a slice (or
// typed pointer) from Open, AddRange or Alloc used after its Commit or
// Abort, or after the Run that committed it, is flagged too: it would
// read another transaction's bytes.
//
// errwrap — error identity. In internal/... and server/, fmt.Errorf
// must wrap error causes with %w, and errors must be compared with
// errors.Is (or pangolin.IsCorruption / pangolin.IsPoison), never
// ==/!=. Bug class: severed error chains breaking heal-and-retry,
// typed wire statuses, and shutdown sentinels (the Apply error
// contract PR 7's review fixed).
//
// stopbool — iteration callbacks. A call to a func(...) bool callback
// parameter must not discard its result: false means the caller asked
// the iteration to stop. Bug class: scans delivering pairs after the
// callback returned false — fixed twice in PR 8's snapshot merge
// paths.
//
// # When a rule is an analyzer
//
// An invariant one helper can own is enforced by construction and a
// test, not by an analyzer. Durable file replacement lives in
// internal/durable (durable.WriteFile), and its TestNoRawRename fails on
// any other non-test os.Rename; the shard reader gate is touched only in
// the worker's gatedRead and withGate, and TestGateReleasedOnEveryPath
// drives each path that takes it. A future
// analyzer stays only if it guards at least three sites in at least two
// packages, or if a seeded violation at a real site is caught by no
// test.
//
// # Suppression
//
// Intentional exceptions are documented in-code, never out-of-band:
//
//	//pgllint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the violating line or on its own line immediately above it. The
// reason is mandatory; a reasonless or malformed ignore suppresses
// nothing and is itself diagnosed at the violation it fails to cover.
//
// # Running
//
// `make lint` runs cmd/pgllint over ./..., which is also how the CI lint
// job gates merges; `go vet` runs separately (`make vet`). Load is the
// one loader: `go list -test -export -deps` lists the packages, their
// dependencies come from the export data go list compiles, and each
// package, its in-package tests and its external test package are
// type-checked from source for the target GOARCH, so every file is
// analyzed once. cmd/pgllint prints the findings; linttest checks them
// against the testdata want comments through the same loader.
package lint
