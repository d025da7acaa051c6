package server

import (
	"sync"
	"sync/atomic"
)

// The frame pool backs every hot-path wire buffer on both sides of a
// connection: completion frames on the server, request frames on
// the client. Pooling them converts the per-op frame allocation into a
// pointer swap, which is where most of the protocol layer's GC
// pressure lived before this pool existed.
//
// Ownership contract (the long form lives in doc.go):
//
//   - A frame fetched with getFrame is owned exclusively by the getter
//     until it hands the frame to the connection's writer (the
//     writeLoop on the server, the client writeLoop on the client).
//   - The writer releases the frame back to the pool immediately after
//     the bytes reach the bufio layer. Nothing may retain a pointer
//     into f.b past that hand-off: values that must outlive the frame
//     (GET bodies delivered to callers, verified-read results) are
//     copied out before the frame is queued for writing.
//   - Frames are laid out as [4-byte length][payload]; the length
//     prefix is patched in place by finishFrame so header and payload
//     leave in one bufio write instead of two (the separate header
//     write made the stack header escape through the io.Writer
//     interface — one heap allocation per frame).
//
// poisonFrames is the test hook behind the -race torture: when set,
// every released frame is scribbled with a poison byte first, so any
// reader still aliasing recycled memory sees garbage deterministically
// instead of only under rare reuse timing.

// frameBuf wraps the byte slice so the pool traffics in pointers —
// storing slices directly would re-box the header on every Put.
type frameBuf struct {
	b []byte
}

// maxPooledFrame caps what recycles: oversized scan/stats frames are
// dropped so one large response cannot pin megabytes in the pool.
const maxPooledFrame = 64 << 10

const frameHeaderLen = 4

var framePool = sync.Pool{
	New: func() any { return &frameBuf{b: make([]byte, 0, 256)} },
}

var poisonFrames atomic.Bool

func getFrame() *frameBuf {
	return framePool.Get().(*frameBuf)
}

func putFrame(f *frameBuf) {
	if f == nil || cap(f.b) > maxPooledFrame {
		return
	}
	if poisonFrames.Load() {
		b := f.b[:cap(f.b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
	f.b = f.b[:0]
	framePool.Put(f)
}

// beginFrame resets a frame to the reserved length prefix; the caller
// appends the payload and calls finishFrame before queueing it.
func beginFrame(f *frameBuf) []byte {
	return append(f.b[:0], 0, 0, 0, 0)
}

// finishFrame patches the length prefix for a buffer laid out by
// beginFrame. The frame is then ready for a single-write hand-off.
func finishFrame(b []byte) []byte {
	n := len(b) - frameHeaderLen
	_ = b[3]
	b[0] = byte(n >> 24)
	b[1] = byte(n >> 16)
	b[2] = byte(n >> 8)
	b[3] = byte(n)
	return b
}
