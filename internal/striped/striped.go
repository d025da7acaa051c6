// Package striped provides an event counter for paths that several cores
// hit at once.
package striped

import (
	"sync/atomic"
	"unsafe"
)

// A counter has 1<<stripeBits cells. The read path runs on a handful of
// goroutines per pool — connection readers and the shard worker — so eight
// cells keep most of them apart.
const (
	stripeBits = 3
	stripes    = 1 << stripeBits
)

// Counter is a monotonic uint64 counter whose Add, unlike one shared
// atomic word's, does not pull a single cache line back and forth between
// the cores adding to it: each goroutine adds to one of a few cells a line
// apart, chosen from its stack's address, and Load sums them. The total is
// exactly the sum of all Adds; a Load concurrent with Adds sees some prefix
// of each cell's, as a lone atomic's Load sees some prefix of its own.
//
// The zero value is ready to use. A Counter must not be copied after first
// use.
type Counter struct {
	cells [stripes]cell
}

type cell struct {
	n atomic.Uint64
	_ [56]byte // a 64-byte stride puts no two cells' words on one line
}

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	// Goroutine stacks are disjoint and at least 2 KB, so the address of
	// a local tells concurrent goroutines apart (and is stable for one
	// goroutine on one call path). The pointer is only hashed, never
	// converted back.
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe))>>11) * 0x9E3779B97F4A7C15
	c.cells[h>>(64-stripeBits)].n.Add(n)
}

// Load returns the counter's value.
func (c *Counter) Load() uint64 {
	var sum uint64
	for i := range c.cells {
		sum += c.cells[i].n.Load()
	}
	return sum
}

// Reset zeroes the counter. Adds racing with it may be kept or lost.
func (c *Counter) Reset() {
	for i := range c.cells {
		c.cells[i].n.Store(0)
	}
}
