package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// oracle is the correctness model. Every key has one writer, so its writes
// are totally ordered and numbered 1, 2, 3…; a value carries a tag derived
// from its key and the number of the write that stored it. Readers on other
// streams check what they are given against two atomics per key: the last
// write acknowledged before the read was sent and the last write issued by
// the time its reply arrived.
type oracle struct {
	keys   []uint64
	index  map[uint64]int32
	sorted []uint64 // ascending keys, for scan checks

	// acked[i] = version<<1 | present, the last acknowledged write.
	// issued[i] = version<<32 | version of the last DEL issued.
	acked  []atomic.Uint64
	issued []atomic.Uint64
	dels   atomic.Uint64 // DELs issued so far; scans are exact while it is 0

	attempted atomic.Uint64 // individual operations sent
	errored   atomic.Uint64 // failed, refused or timed out
	wrong     atomic.Uint64 // answered, but not with what the model allows
	lost      atomic.Uint64 // acknowledged writes missing after crash recovery
}

func newOracle(keys []uint64) *oracle {
	o := &oracle{
		keys:   keys,
		index:  make(map[uint64]int32, len(keys)),
		sorted: append([]uint64(nil), keys...),
		acked:  make([]atomic.Uint64, len(keys)),
		issued: make([]atomic.Uint64, len(keys)),
	}
	for i, k := range keys {
		o.index[k] = int32(i)
	}
	sort.Slice(o.sorted, func(i, j int) bool { return o.sorted[i] < o.sorted[j] })
	return o
}

func (o *oracle) failed() uint64 { return o.errored.Load() + o.wrong.Load() + o.lost.Load() }

func keyTag(k uint64) uint64 { return mix64(k^0x5bd1e9955bd1e995) >> 32 }

// valueFor is the value write number ver stores under key k.
func valueFor(k uint64, ver uint32) uint64 { return keyTag(k)<<32 | uint64(ver) }

// beginWrite numbers the owner's next write to key i and returns the value
// to PUT (ignored for a DEL) and whether the key is present just before it.
// Only the key's owning stream calls it.
func (o *oracle) beginWrite(i int32, del bool) (ver uint32, val uint64, wasPresent bool) {
	cur := o.issued[i].Load()
	prevVer, lastDel := uint32(cur>>32), uint32(cur)
	wasPresent = prevVer != 0 && lastDel != prevVer
	ver = prevVer + 1
	if del {
		lastDel = ver
		o.dels.Add(1)
	}
	o.issued[i].Store(uint64(ver)<<32 | uint64(lastDel))
	return ver, valueFor(o.keys[i], ver), wasPresent
}

// ackWrite records that write ver to key i was acknowledged. Replies may be
// observed out of order, so the record only moves forward.
func (o *oracle) ackWrite(i int32, ver uint32, del bool) {
	next := uint64(ver) << 1
	if !del {
		next |= 1
	}
	for {
		cur := o.acked[i].Load()
		if cur >= next || o.acked[i].CompareAndSwap(cur, next) {
			return
		}
	}
}

// preloaded marks every key present at version 1, as the preload wrote it.
func (o *oracle) preloaded() {
	for i := range o.keys {
		o.issued[i].Store(1 << 32)
		o.acked[i].Store(1<<1 | 1)
	}
}

// ackedBefore snapshots key i's acknowledged state; a reader takes it
// before sending and hands it to checkGet with the reply.
func (o *oracle) ackedBefore(i int32) uint64 { return o.acked[i].Load() }

// checkGet reports whether a GET reply is one the model allows: the value
// of some write no older than the one acknowledged before the read was
// sent and no newer than the last one issued; absent only if the key was
// absent then or a DEL has been issued since.
func (o *oracle) checkGet(i int32, before uint64, v uint64, found bool) bool {
	now := o.issued[i].Load()
	issuedVer, lastDel := now>>32, now&math.MaxUint32
	ackedVer, ackedPresent := before>>1, before&1 == 1
	ok := false
	if found {
		ver := v & math.MaxUint32
		ok = v>>32 == keyTag(o.keys[i]) && ver >= 1 && ver >= ackedVer && ver <= issuedVer &&
			!(ver == ackedVer && !ackedPresent)
	} else {
		ok = !ackedPresent || lastDel > ackedVer
	}
	if !ok {
		o.wrong.Add(1)
	}
	return ok
}

// checkScan reports whether a SCAN page from lo is allowed: strictly
// ascending, within [lo, ∞), at most limit pairs, every pair a key of the
// universe carrying that key's tag — and, while no DEL has ever been
// issued, exactly the next keys of the universe.
func (o *oracle) checkScan(lo uint64, limit int, ks, vs []uint64) bool {
	ok := len(ks) <= limit
	for j, k := range ks {
		if k < lo || (j > 0 && k <= ks[j-1]) || vs[j]>>32 != keyTag(k) {
			ok = false
			break
		}
		if _, known := o.index[k]; !known {
			ok = false
			break
		}
	}
	if ok && o.dels.Load() == 0 {
		from := sort.Search(len(o.sorted), func(i int) bool { return o.sorted[i] >= lo })
		want := o.sorted[from:min(from+limit, len(o.sorted))]
		ok = len(want) == len(ks)
		for j := 0; ok && j < len(ks); j++ {
			ok = ks[j] == want[j]
		}
	}
	if !ok {
		o.wrong.Add(1)
	}
	return ok
}

// checkReadback compares one key's value after crash recovery with the
// last acknowledged write: exactly that value, or absent after a DEL. It
// is only called once every issued write has been answered.
func (o *oracle) checkReadback(i int32, v uint64, found bool) bool {
	a := o.acked[i].Load()
	ver, present := uint32(a>>1), a&1 == 1
	ok := found == present && (!found || v == valueFor(o.keys[i], ver))
	if !ok {
		o.lost.Add(1)
	}
	return ok
}

// live counts the keys present according to the acknowledged state.
func (o *oracle) live() int {
	n := 0
	for i := range o.acked {
		if o.acked[i].Load()&1 == 1 {
			n++
		}
	}
	return n
}
