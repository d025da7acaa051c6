package server

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Wire protocol: every message is a length-prefixed frame.
//
//	frame   := length(uint32 BE) payload
//
// A connection opens with one seqless exchange, then carries
// sequence-numbered frames (see doc.go for the full grammar; the frame
// length covers the payload only, not the 4-byte prefix):
//
//	hello    := op(1 B) magic version window     seqless, first frame only
//	ack      := status(1 B) version window        seqless
//	request  := seq(uint64 BE) op(1 B) fields…   fields are uint64 BE
//	response := seq(uint64 BE) status(1 B) body…  may arrive out of order
//
// A first frame that is not a HELLO (OpHello with the magic) gets one
// seqless ERR and the connection closes.

// Request opcodes.
const (
	OpGet    uint8 = 1  // key → value
	OpPut    uint8 = 2  // key, value
	OpDel    uint8 = 3  // key
	OpStats  uint8 = 4  // → JSON body
	OpSync   uint8 = 5  // save every shard snapshot
	OpCrash  uint8 = 6  // seed → write crash images, then the server dies
	OpMGet   uint8 = 7  // N keys → N (found, value) records
	OpMPut   uint8 = 8  // N (key, value) pairs → N status bytes
	OpMDel   uint8 = 9  // N keys → N status bytes
	OpScan   uint8 = 10 // lo, hi, limit, cursor → more, next-cursor, (key value)*
	OpScrub  uint8 = 11 // mode (0 health only, 1 run a full pass) → JSON body
	OpInject uint8 = 12 // seed, count → injected, capable, total (fault-injection test hook)
	OpHello  uint8 = 13 // magic, version, window → negotiate the protocol (first frame only)
	// OpSnapScan is OpScan at a pinned generation: the first page (snapid
	// 0, cursor 0) opens a connection-owned snapshot and the reply names
	// it; continuations carry that snapid with the reply's next-cursor.
	// Every page of one snapid observes the same committed state. A
	// continuation without its snapid is a cursor-mode violation
	// (StatusCursorMode), never a silently-live page.
	OpSnapScan uint8 = 14 // lo, hi, limit, cursor, snapid → snapid, more, next-cursor, (key value)*
)

// HelloMagic marks a genuine HELLO: a first frame carrying opcode 13
// without it is refused like any other non-HELLO first frame.
const HelloMagic uint64 = 0x50474c2d50495045 // "PGL-PIPE"

// ProtocolV2 is the pipelined protocol version HELLO negotiates.
const ProtocolV2 uint64 = 2

// Window bounds for the per-connection in-flight window HELLO negotiates:
// the server grants min(requested, MaxWindow) (at least 1) and sizes the
// connection's completion buffering by the grant, so the grant is also
// the server's per-connection memory bound under overload.
const (
	DefaultWindow = 256  // granted when the client requests 0
	MaxWindow     = 1024 // server-side cap on any request
)

// Per-op status bytes inside an MGET/MPUT/MDEL response body (the frame
// status byte stays StatusOK; these describe each op).
const (
	BatchOK       uint8 = 0
	BatchNotFound uint8 = 1
	BatchErr      uint8 = 2
)

// MaxBatchOps caps the ops in one MGET/MPUT/MDEL request: enough to keep
// every shard's group-commit window full, small enough that one frame
// can't pin megabytes per connection.
const MaxBatchOps = 4096

// MaxScanPairs caps the pairs one SCAN response frame carries; a request
// with a zero or larger limit is clamped to it. Deeper scans paginate
// with the response's next-cursor.
const MaxScanPairs = 4096

// Response status codes. Failures are classified so the client can
// rebuild typed errors — the body is a UTF-8 message for every status
// ≥ StatusErr.
const (
	StatusOK       uint8 = 0
	StatusNotFound uint8 = 1
	StatusErr      uint8 = 2 // body is a UTF-8 message
	StatusCorrupt  uint8 = 3 // pangolin.IsCorruption on the server side
	StatusPoison   uint8 = 4 // pangolin.IsPoison on the server side
	StatusShutdown uint8 = 5 // the shard set is shutting down
	// Snapshot statuses. SnapTooOld: the pinned generation was evicted
	// (caps, release, engine invalidation) — reopen and rescan.
	// SnapUnsupported: a shard backend lacks the snapshot capability; the
	// server refuses rather than silently serving a weaker scan.
	// CursorMode: a cursor was presented to the wrong scan mode (a
	// snapshot continuation without its snapid, or a snapid nobody
	// opened).
	StatusSnapTooOld      uint8 = 6
	StatusSnapUnsupported uint8 = 7
	StatusCursorMode      uint8 = 8
)

// MaxConnSnapshots caps the snapshots one connection may hold open at
// once. Each open snapshot pins a generation on every shard (pre-images
// of overwritten objects accumulate until release), so the cap bounds
// what one client can make the write path retain; a dropped connection
// releases all of its pins.
const MaxConnSnapshots = 4

// MaxFrame bounds a frame payload; stats JSON for even thousands of shards
// stays far below it, so anything larger is a corrupt or hostile stream.
const MaxFrame = 1 << 20

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame payload, reusing buf when it is large enough.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// Request is a decoded client request. Single-field ops (OpGet, OpDel,
// OpCrash, OpScrub) carry their field — key, seed, or scrub mode — in
// Key. OpInject carries its seed in Key and its fault count in Val.
// OpScan carries its bounds in Key (lo) and Val (hi) plus Limit and
// Cursor. OpHello carries its magic in Key, version in Val, and
// requested window in Limit. Batch ops carry Keys (MGET, MDEL) or
// Keys+Vals pairwise (MPUT); decoded slices alias nothing and are safe
// to retain.
type Request struct {
	Op     uint8
	Key    uint64
	Val    uint64   // OpPut value; OpScan/OpSnapScan hi bound
	Limit  uint64   // OpScan/OpSnapScan only: max pairs in the response
	Cursor uint64   // OpScan/OpSnapScan only: resume key (0 on a fresh scan)
	SnapID uint64   // OpSnapScan only: 0 opens a snapshot, else continues one
	Keys   []uint64 // OpMGet, OpMPut, OpMDel
	Vals   []uint64 // OpMPut only
}

// fields returns the fixed uint64 fields an op carries, in wire order.
func (r *Request) fields() [5]*uint64 {
	return [5]*uint64{&r.Key, &r.Val, &r.Limit, &r.Cursor, &r.SnapID}
}

// fieldCount returns how many uint64 fields a fixed-shape op carries, or
// -1 for the variable-length batch ops.
func fieldCount(op uint8) (int, error) {
	switch op {
	case OpGet, OpDel:
		return 1, nil
	case OpPut:
		return 2, nil
	case OpStats, OpSync:
		return 0, nil
	case OpCrash, OpScrub:
		return 1, nil
	case OpInject:
		return 2, nil
	case OpHello:
		return 3, nil // magic, version, window
	case OpScan:
		return 4, nil
	case OpSnapScan:
		return 5, nil // lo, hi, limit, cursor, snapid
	case OpMGet, OpMPut, OpMDel:
		return -1, nil
	default:
		return 0, fmt.Errorf("server: unknown opcode %d", op)
	}
}

// batchStride is the bytes per op in a batch request payload.
func batchStride(op uint8) int {
	if op == OpMPut {
		return 16 // key + value
	}
	return 8 // key
}

// checkBatchLen validates a batch op count against its protocol cap.
func checkBatchLen(op uint8, n int) error {
	if n == 0 {
		return fmt.Errorf("server: op %d with zero ops", op)
	}
	if n > MaxBatchOps {
		return fmt.Errorf("server: op %d with %d ops exceeds limit %d", op, n, MaxBatchOps)
	}
	return nil
}

// EncodeRequest appends req's wire form to b.
func EncodeRequest(b []byte, req Request) ([]byte, error) {
	n, err := fieldCount(req.Op)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		if err := checkBatchLen(req.Op, len(req.Keys)); err != nil {
			return nil, err
		}
		if req.Op == OpMPut && len(req.Vals) != len(req.Keys) {
			return nil, fmt.Errorf("server: MPUT with %d keys, %d values", len(req.Keys), len(req.Vals))
		}
		b = append(b, req.Op)
		for i, k := range req.Keys {
			b = appendU64(b, k)
			if req.Op == OpMPut {
				b = appendU64(b, req.Vals[i])
			}
		}
		return b, nil
	}
	b = append(b, req.Op)
	for i, f := range req.fields() {
		if i >= n {
			break
		}
		b = appendU64(b, *f)
	}
	return b, nil
}

// DecodeRequest parses a request payload.
func DecodeRequest(p []byte) (Request, error) {
	if len(p) < 1 {
		return Request{}, fmt.Errorf("server: empty request")
	}
	req := Request{Op: p[0]}
	n, err := fieldCount(req.Op)
	if err != nil {
		return Request{}, err
	}
	if n < 0 {
		stride := batchStride(req.Op)
		if (len(p)-1)%stride != 0 {
			return Request{}, fmt.Errorf("server: op %d payload of %d bytes is not a whole number of %d-byte ops",
				req.Op, len(p), stride)
		}
		count := (len(p) - 1) / stride
		if err := checkBatchLen(req.Op, count); err != nil {
			return Request{}, err
		}
		req.Keys = make([]uint64, count)
		if req.Op == OpMPut {
			req.Vals = make([]uint64, count)
		}
		for i := 0; i < count; i++ {
			off := 1 + i*stride
			req.Keys[i] = binary.BigEndian.Uint64(p[off:])
			if req.Op == OpMPut {
				req.Vals[i] = binary.BigEndian.Uint64(p[off+8:])
			}
		}
		return req, nil
	}
	if len(p) != 1+8*n {
		return Request{}, fmt.Errorf("server: op %d wants %d bytes, got %d", req.Op, 1+8*n, len(p))
	}
	for i, f := range req.fields() {
		if i >= n {
			break
		}
		*f = binary.BigEndian.Uint64(p[1+8*i:])
	}
	return req, nil
}

// EncodeResponse appends a response payload to b: status, then body.
func EncodeResponse(b []byte, status uint8, body []byte) []byte {
	b = append(b, status)
	return append(b, body...)
}

// DecodeResponse splits a response payload into status and body.
func DecodeResponse(p []byte) (uint8, []byte, error) {
	if len(p) < 1 {
		return 0, nil, fmt.Errorf("server: empty response")
	}
	return p[0], p[1:], nil
}

// EncodeRequestSeq appends req's wire form — seq, then the EncodeRequest
// layout — to b.
func EncodeRequestSeq(b []byte, seq uint64, req Request) ([]byte, error) {
	b = appendU64(b, seq)
	out, err := EncodeRequest(b, req)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeRequestSeq parses a request payload: the sequence number, then
// the request. A payload too short to carry a sequence number cannot be
// answered at all (there is no seq to echo), so the caller must treat
// that error as a corrupt stream and drop the connection.
func DecodeRequestSeq(p []byte) (uint64, Request, error) {
	if len(p) < 8 {
		return 0, Request{}, fmt.Errorf("server: v2 request of %d bytes has no sequence number", len(p))
	}
	seq := binary.BigEndian.Uint64(p)
	req, err := DecodeRequest(p[8:])
	return seq, req, err
}

// EncodeResponseSeq appends a response payload to b: the echoed
// sequence number, then status and body.
func EncodeResponseSeq(b []byte, seq uint64, status uint8, body []byte) []byte {
	b = appendU64(b, seq)
	return EncodeResponse(b, status, body)
}

// DecodeResponseSeq splits a response payload into its echoed
// sequence number, status, and body.
func DecodeResponseSeq(p []byte) (uint64, uint8, []byte, error) {
	if len(p) < 9 {
		return 0, 0, nil, fmt.Errorf("server: v2 response of %d bytes", len(p))
	}
	return binary.BigEndian.Uint64(p), p[8], p[9:], nil
}

// DecodeHello reports whether a first frame is a HELLO: a well-formed,
// seqless OpHello request carrying HelloMagic. It is the only gate
// between a fresh socket and the request loop; anything it rejects —
// including opcode 13 without the magic — is refused.
func DecodeHello(p []byte) (version, window uint64, ok bool) {
	req, err := DecodeRequest(p)
	if err != nil || req.Op != OpHello || req.Key != HelloMagic {
		return 0, 0, false
	}
	return req.Val, req.Limit, true
}

// GrantWindow clamps a HELLO's requested in-flight window to the
// server's bounds: 0 asks for the default, and nothing exceeds
// MaxWindow.
func GrantWindow(requested uint64) int {
	switch {
	case requested == 0:
		return DefaultWindow
	case requested > MaxWindow:
		return MaxWindow
	default:
		return int(requested)
	}
}
