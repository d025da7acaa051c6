package server

import (
	"errors"
	"fmt"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/shard"
	"github.com/pangolin-go/pangolin/internal/store"
)

// ErrClientClosed reports use of a Client after Close. In-flight
// operations at Close time resolve with it too — a pipelined client
// never drops an operation silently.
var ErrClientClosed = errors.New("server: client closed")

// ErrNotFound reports a GET or DEL of an absent key, mapped from the
// wire's NOT_FOUND status. The synchronous Get/Del/MGet/MDel signatures
// keep reporting absence through their ok/present booleans (absence is
// not an error there); ErrNotFound surfaces on the async Future surface
// and anywhere a raw status byte is translated.
var ErrNotFound = errors.New("server: key not found")

// ErrShuttingDown reports an operation the server rejected because its
// shard set is shutting down. Every in-flight pipelined operation
// resolves — to a reply or to a typed error like this one — never to a
// silent drop. Compare with errors.Is.
var ErrShuttingDown = shard.ErrShuttingDown

// ErrSnapshotTooOld reports a snapshot scan (or Backup) whose pinned
// generation was evicted on the server — the snapshot outlived the
// version buffer's pin or retention caps, or was invalidated — so its
// pages can no longer be proven consistent. Reopen and rescan. Compare
// with errors.Is.
var ErrSnapshotTooOld = store.ErrSnapshotTooOld

// ErrSnapshotUnsupported reports that a shard backend on the server
// lacks the MVCC snapshot capability. The server refuses the snapshot
// outright instead of silently serving per-chunk consistency where
// one committed state was asked for. Compare with errors.Is.
var ErrSnapshotUnsupported = store.ErrSnapshotUnsupported

// ErrCursorMode reports a cursor presented to the wrong scan mode: a
// snapshot continuation without its snapshot id, a snapshot id nobody
// opened, or (client-side, by construction) a snapshot scanner's cursor
// fed to a live Scan. The two modes promise different consistency, so a
// page must never silently continue in the other one. Compare with
// errors.Is.
var ErrCursorMode = errors.New("server: cursor does not belong to this scan mode")

// remoteError is a server-reported failure rebuilt on the client side:
// the message is the server's, and the cause restores the typed error
// class the wire status byte encoded, so errors.Is(err, ErrShuttingDown),
// pangolin.IsCorruption(err), and pangolin.IsPoison(err) hold across the
// network exactly as they do in-process.
type remoteError struct {
	msg   string
	cause error
}

func (e *remoteError) Error() string { return e.msg }

func (e *remoteError) Unwrap() error { return e.cause }

// errStatus classifies a server-side error as a wire status; every
// failed request's reply carries it, so statusError can rebuild the
// typed error on the client.
func errStatus(err error) uint8 {
	switch {
	case errors.Is(err, shard.ErrShuttingDown):
		return StatusShutdown
	case errors.Is(err, store.ErrSnapshotTooOld):
		return StatusSnapTooOld
	case errors.Is(err, store.ErrSnapshotUnsupported):
		return StatusSnapUnsupported
	case errors.Is(err, ErrCursorMode):
		return StatusCursorMode
	case pangolin.IsCorruption(err):
		return StatusCorrupt
	case pangolin.IsPoison(err):
		return StatusPoison
	default:
		return StatusErr
	}
}

// statusError rebuilds the typed error a response status encodes; nil
// for StatusOK. StatusNotFound maps to ErrNotFound (the typed form of
// the absent-key statuses; sync wrappers translate it back into their
// ok booleans).
func statusError(status uint8, body []byte) error {
	switch status {
	case StatusOK:
		return nil
	case StatusNotFound:
		return ErrNotFound
	case StatusShutdown:
		return &remoteError{msg: fmt.Sprintf("server: %s", body), cause: ErrShuttingDown}
	case StatusSnapTooOld:
		return &remoteError{msg: fmt.Sprintf("server: %s", body), cause: ErrSnapshotTooOld}
	case StatusSnapUnsupported:
		return &remoteError{msg: fmt.Sprintf("server: %s", body), cause: ErrSnapshotUnsupported}
	case StatusCursorMode:
		return &remoteError{msg: fmt.Sprintf("server: %s", body), cause: ErrCursorMode}
	case StatusCorrupt:
		return &remoteError{msg: fmt.Sprintf("server: %s", body), cause: &pangolin.CorruptionError{Reason: "reported by server"}}
	case StatusPoison:
		return &remoteError{msg: fmt.Sprintf("server: %s", body), cause: &pangolin.PoisonError{}}
	case StatusErr:
		return fmt.Errorf("server: %s", body)
	default:
		return fmt.Errorf("server: unknown response status %d (body %q)", status, body)
	}
}
