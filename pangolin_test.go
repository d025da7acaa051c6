package pangolin

import (
	"bytes"
	"strings"
	"testing"
)

type listNode struct {
	Next OID
	Val  uint64
}

func newPool(t *testing.T, mode Mode) *Pool {
	t.Helper()
	p, err := Create(Config{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func TestTypedLinkedList(t *testing.T) {
	// The paper's Listing 1/2 scenario: a persistent linked list.
	p := newPool(t, ModePangolinMLPC)
	root, err := Root[listNode](p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Build a 10-node list.
	err = p.Run(func(tx *Tx) error {
		head, err := Open[listNode](tx, root)
		if err != nil {
			return err
		}
		head.Val = 0
		prev := head
		for i := uint64(1); i < 10; i++ {
			oid, node, err := Alloc[listNode](tx, 1)
			if err != nil {
				return err
			}
			node.Val = i
			prev.Next = oid
			prev = node
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Walk it read-only.
	var got []uint64
	oid := root
	for !oid.IsNil() {
		n, err := GetFromPool[listNode](p, oid)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, n.Val)
		oid = n.Next
	}
	if len(got) != 10 {
		t.Fatalf("walked %d nodes", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("node %d = %d", i, v)
		}
	}
}

func TestSingleObjectCommit(t *testing.T) {
	// Listing 2: modify one object without explicit transaction code.
	p := newPool(t, ModePangolinMLPC)
	root, err := Root[listNode](p, 1)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := OpenSingle[listNode](p, root)
	if err != nil {
		t.Fatal(err)
	}
	obj.Value().Val = 777
	if err := obj.Commit(); err != nil {
		t.Fatal(err)
	}
	n, err := GetFromPool[listNode](p, root)
	if err != nil {
		t.Fatal(err)
	}
	if n.Val != 777 {
		t.Fatalf("val %d", n.Val)
	}
	if err := obj.Commit(); err == nil {
		t.Fatal("double commit allowed")
	}
	// Checksums remain exact after the diff-based commit.
	if err := p.CheckObject(root); err != nil {
		t.Fatal(err)
	}
}

func TestViewRejectsPointerTypes(t *testing.T) {
	type bad struct {
		P *int
	}
	if _, err := View[bad](make([]byte, 64)); err == nil {
		t.Fatal("pointer-bearing type accepted")
	}
	type badMap struct {
		M map[int]int
	}
	if _, err := View[badMap](make([]byte, 64)); err == nil {
		t.Fatal("map-bearing type accepted")
	}
	if _, err := View[listNode](make([]byte, 8)); err == nil {
		t.Fatal("undersized data accepted")
	}
	if _, err := View[listNode](nil); err == nil {
		t.Fatal("empty data accepted")
	}
}

func TestSnapshotRoundTripKeepsData(t *testing.T) {
	p := newPool(t, ModePangolinMLPC)
	root, err := Root[listNode](p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(func(tx *Tx) error {
		n, err := Open[listNode](tx, root)
		if err != nil {
			return err
		}
		n.Val = 31337
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pool.pgl"
	if err := p.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p2, err := LoadFile(path, Config{Mode: ModePangolinMLPC})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	root2, err := Root[listNode](p2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if root2 != root {
		t.Fatal("root changed across snapshot")
	}
	n, err := GetFromPool[listNode](p2, root2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Val != 31337 {
		t.Fatalf("val %d after reload", n.Val)
	}
}

func TestFaultInjectionEndToEnd(t *testing.T) {
	p := newPool(t, ModePangolinMLPC)
	root, err := Root[listNode](p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(func(tx *Tx) error {
		n, err := Open[listNode](tx, root)
		if err != nil {
			return err
		}
		n.Val = 2024
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Media error through the public API.
	p.InjectMediaError(root.Off)
	n, err := GetFromPool[listNode](p, root)
	if err != nil {
		t.Fatalf("online recovery: %v", err)
	}
	if n.Val != 2024 {
		t.Fatalf("val %d after media-error recovery", n.Val)
	}
	// Scribble, then scrub.
	p.InjectScribble(root.Off, 8, 1)
	rep, err := p.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("scrub repaired nothing: %+v", rep)
	}
	n, err = GetFromPool[listNode](p, root)
	if err != nil {
		t.Fatal(err)
	}
	if n.Val != 2024 {
		t.Fatalf("val %d after scrub", n.Val)
	}
}

func TestAllModesThroughPublicAPI(t *testing.T) {
	for _, mode := range Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			p := newPool(t, mode)
			root, err := Root[listNode](p, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Run(func(tx *Tx) error {
				n, err := Open[listNode](tx, root)
				if err != nil {
					return err
				}
				n.Val = uint64(mode) + 100
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			n, err := GetFromPool[listNode](p, root)
			if err != nil {
				t.Fatal(err)
			}
			if n.Val != uint64(mode)+100 {
				t.Fatalf("val %d", n.Val)
			}
		})
	}
}

// TestModeNamesRoundTrip: every mode's lower-cased String parses back to
// itself, and a name outside the list is refused.
func TestModeNamesRoundTrip(t *testing.T) {
	if len(Modes()) != 6 {
		t.Fatalf("Modes() = %v, want Table 2's six", Modes())
	}
	for _, m := range Modes() {
		if got, err := ParseMode(strings.ToLower(m.String())); err != nil || got != m {
			t.Errorf("ParseMode(%q) = (%v, %v), want %v", strings.ToLower(m.String()), got, err, m)
		}
	}
	if _, err := ParseMode("Pangolin-MLPC"); err == nil {
		t.Error("ParseMode accepted a name that is not lower case")
	}
}

func TestSizeOf(t *testing.T) {
	if SizeOf[listNode]() != 24 {
		t.Fatalf("SizeOf[listNode] = %d, want 24", SizeOf[listNode]())
	}
	if SizeOf[uint64]() != 8 {
		t.Fatalf("SizeOf[uint64] = %d", SizeOf[uint64]())
	}
}
