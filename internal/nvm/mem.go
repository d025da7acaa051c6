//go:build !race

package nvm

import (
	"fmt"
	"syscall"
)

// mapMem returns size zeroed bytes for an untracked device: an anonymous
// private mapping, outside the Go heap, so a served shard's untouched
// capacity costs neither resident memory nor garbage-collector headroom
// (the heap goal is twice the live heap, and a heap slice the size of
// the pool would count as live in full). The kernel backs a page only
// once it is stored to.
func mapMem(size uint64) []byte {
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("nvm: mapping a %d-byte device: %v", size, err))
	}
	return b
}

// unmapMem releases a mapMem mapping. Any slice into it faults afterwards.
func unmapMem(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("nvm: unmapping a %d-byte device: %v", len(b), err))
	}
}
