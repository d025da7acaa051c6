//go:build race

package nvm

import "unsafe"

// mapMem returns size zeroed bytes for an untracked device. A race build
// keeps them on the Go heap: the race detector does not see accesses to
// memory it did not allocate, and the shard and server -race tests are
// where reader/writer races on device bytes get caught.
func mapMem(size uint64) []byte {
	w := make([]uint64, size/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), size)
}

// unmapMem leaves a race build's heap memory to the collector.
func unmapMem([]byte) {}
