package pangolin_test

import (
	"fmt"
	"log"

	"github.com/pangolin-go/pangolin"
)

// Node is a persistent linked-list node. Persistent structs hold OIDs
// instead of Go pointers and must be pointer-free.
type Node struct {
	Next pangolin.OID
	Val  uint64
}

// Example_quickstart mirrors the paper's Listings 1 and 2: build a
// persistent linked list with transactions, update a node atomic-style
// with pgl_open/pgl_commit, and survive a simulated power failure.
func Example_quickstart() {
	// Create a pool with full protection: micro-buffering, replicated
	// metadata/logs, parity, and object checksums (Pangolin-MLPC).
	pool, err := pangolin.Create(pangolin.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	// The root object anchors all reachable data (§2.3).
	root, err := pangolin.Root[Node](pool, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Listing 1, transactional style: allocate and link three nodes.
	// Everything inside Run commits atomically — object data, checksums,
	// allocator metadata, and parity.
	err = pool.Run(func(tx *pangolin.Tx) error {
		head, err := pangolin.Open[Node](tx, root)
		if err != nil {
			return err
		}
		head.Val = 10
		prev := head
		for _, v := range []uint64{20, 30, 40} {
			oid, node, err := pangolin.Alloc[Node](tx, 1)
			if err != nil {
				return err
			}
			node.Val = v
			prev.Next = oid
			prev = node
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Listing 2, atomic style: pgl_open / modify / pgl_commit. No
	// explicit transaction code, no AddRange — the library diffs the
	// micro-buffer at commit.
	obj, err := pangolin.OpenSingle[Node](pool, root)
	if err != nil {
		log.Fatal(err)
	}
	obj.Value().Val = 11
	if err := obj.Commit(); err != nil {
		log.Fatal(err)
	}

	// Walk the list read-only (pgl_get: verified NVMM reads).
	walk := func(p *pangolin.Pool) []uint64 {
		var vals []uint64
		for oid := root; !oid.IsNil(); {
			n, err := pangolin.GetFromPool[Node](p, oid)
			if err != nil {
				log.Fatal(err)
			}
			vals = append(vals, n.Val)
			oid = n.Next
		}
		return vals
	}
	fmt.Println("list:", walk(pool))

	// Simulate a power failure: every cache line that was not flushed
	// and fenced reverts. Reopen runs crash recovery.
	crashed := pool.Device().CrashCopy(pangolin.CrashStrict, 1)
	pool.Close()
	pool, err = pangolin.OpenDevice(crashed, pangolin.DefaultConfig(), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	fmt.Println("after crash and recovery:", walk(pool))
	// Output:
	// list: [11 20 30 40]
	// after crash and recovery: [11 20 30 40]
}
