package mbuf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/pangolin-go/pangolin/internal/layout"
)

// Recycling (§3.2's micro-buffers are per-transaction DRAM, bounded by
// the transactions in flight): a transaction's scratch — its Table, the
// Table's first-image Arena chunks, and the micro-buffers it took — goes
// back at Commit or Abort to be used by a later transaction of the same
// engine, so a steady write load allocates almost nothing per
// transaction. Buffers are recycled by size class (class), so one class
// serves every object size within an eighth of it.
//
// The hazard is a slice kept past the end of its transaction: it aliases
// the next transaction's buffer. pgllint's txwrite rule flags one used
// after Commit or Abort, and SetPoison is the run-time check.

const (
	numClasses = 89        // up to 8192 words (64 KB)
	classKeep  = 128 << 10 // bytes of free buffers a table keeps per class
	maxTables  = 4         // free tables a Cache keeps
	poisonWord = 0x0101010101010101 * PoisonByte
)

// PoisonByte fills recycled memory while the poison hook is on.
const PoisonByte = 0xDB

// poison is the test hook behind SetPoison.
var poison atomic.Bool

// SetPoison turns the recycling check on or off. While it is on, every
// buffer and arena chunk a Release recycles is filled with PoisonByte, and
// is checked to still hold only that when it is handed out again: a slice
// kept past its transaction reads poison, and a write through one panics
// at the next reuse. It is a test hook; the check costs a pass over every
// recycled byte.
func SetPoison(on bool) { poison.Store(on) }

// class returns the size class of a backing of n words and the class's
// size in words: every size up to 16 words, then eight classes per power
// of two (18, 20, … 32, 36, 40, …) up to 8192 words (64 KB), so a class
// wastes at most an eighth of its size. Larger backings are not recycled
// (ok false).
func class(n int) (c, words int, ok bool) {
	if n <= 16 {
		return n, n, true
	}
	s := bits.Len(uint(n-1)) - 4 // n in (8<<s, 16<<s]
	m := (n-1)>>s + 1            // 9..16
	c = 8*s + m
	return c, m << s, c < numClasses
}

// Cache recycles transaction tables between one engine's transactions.
// Its zero value is ready to use; it is safe for concurrent transactions.
type Cache struct {
	mu     sync.Mutex
	tables []*Table
}

// Table returns an empty table for a new transaction, a recycled one
// (with its arena chunks and free buffers) when the cache has one.
func (c *Cache) Table() *Table {
	c.mu.Lock()
	if n := len(c.tables); n > 0 {
		t := c.tables[n-1]
		c.tables[n-1] = nil
		c.tables = c.tables[:n-1]
		c.mu.Unlock()
		return t
	}
	c.mu.Unlock()
	t := NewTable()
	t.cache = c
	return t
}

// Take returns a micro-buffer for a size-byte image of oid, recycled
// from the table's free buffers of its size class when one is there.
// The image's bytes are unspecified: the caller overwrites or clears
// them. Insert it to have Release recycle it.
func (t *Table) Take(oid layout.OID, size, canary uint64) *Buf {
	need := backingWords(size)
	c, words, ok := class(need)
	if !ok {
		return New(oid, size, canary)
	}
	var b *Buf
	if free := t.free[c]; len(free) > 0 {
		b = free[len(free)-1]
		free[len(free)-1] = nil
		t.free[c] = free[:len(free)-1]
		if b.filled {
			checkFill(asBytes(b.backing[:cap(b.backing)]), "micro-buffer")
			b.filled = false
		}
	} else {
		b = &Buf{backing: make([]uint64, words), pooled: true}
	}
	b.reset(oid, size, canary)
	return b
}

// Release ends the table's transaction: its buffers from Take go to its
// free lists (up to classKeep bytes a class), its arena is reset, and
// the table returns to its Cache. No slice of a buffer or of the arena
// may be used afterwards.
func (t *Table) Release() {
	poisoning := poison.Load()
	for _, b := range t.order {
		if b == nil || !b.pooled {
			continue
		}
		c, words, _ := class(cap(b.backing))
		if len(t.free[c]) >= max(4, classKeep/(8*words)) {
			continue
		}
		clear(b.ranges)
		b.ranges = b.ranges[:0]
		if poisoning {
			w := b.backing[:cap(b.backing)]
			for i := range w {
				w[i] = poisonWord
			}
			b.filled = true
		}
		t.free[c] = append(t.free[c], b)
	}
	clear(t.order)
	t.order, t.holes, t.bytes = t.order[:0], 0, 0
	clear(t.bufs)
	clear(t.work)
	t.work = t.work[:0]
	t.arena.reset()
	if c := t.cache; c != nil {
		c.mu.Lock()
		if len(c.tables) < maxTables {
			c.tables = append(c.tables, t)
		}
		c.mu.Unlock()
	}
}

// fill writes PoisonByte over b.
func fill(b []byte) {
	for i := range b {
		b[i] = PoisonByte
	}
}

// checkFill panics unless b holds only PoisonByte: recycled memory was
// written after the transaction that used it ended.
func checkFill(b []byte, what string) {
	for i, v := range b {
		if v != PoisonByte {
			panic(fmt.Sprintf("mbuf: recycled %s written at byte %d after its transaction ended", what, i))
		}
	}
}
