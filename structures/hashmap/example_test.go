package hashmap_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/structures/hashmap"
)

// dirRoot is the pool root: it remembers the hashmap anchor across runs.
type dirRoot struct {
	MapAnchor pangolin.OID
}

// pack packs a string of up to 8 bytes into a key or value word; a real
// application would store string objects.
func pack(s string) uint64 {
	var b [8]byte
	copy(b[:], s)
	return binary.LittleEndian.Uint64(b[:])
}

func unpack(v uint64) string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return string(bytes.TrimRight(b[:], "\x00"))
}

// Example_kvstore is a persistent key-value store backed by the hashmap,
// with the pool saved to a file between runs — the application shape the
// paper's §4.5 evaluation models. The pool root keeps the map's anchor,
// so a later run loads the file and attaches to the same map.
func Example_kvstore() {
	dir, err := os.MkdirTemp("", "kvstore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "kv.pgl")

	// First run: create the pool and the map, set two keys, delete one,
	// save.
	pool, err := pangolin.Create(pangolin.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	root, err := pangolin.Root[dirRoot](pool, 100)
	if err != nil {
		log.Fatal(err)
	}
	m, err := hashmap.New(pool)
	if err != nil {
		log.Fatal(err)
	}
	err = pool.Run(func(tx *pangolin.Tx) error {
		d, err := pangolin.Open[dirRoot](tx, root)
		if err != nil {
			return err
		}
		d.MapAnchor = m.Anchor()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range [][2]string{{"lang", "pangolin"}, {"tmp", "scratch"}} {
		if err := m.Insert(pack(kv[0]), pack(kv[1])); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := m.Remove(pack("tmp")); err != nil {
		log.Fatal(err)
	}
	if err := pool.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	pool.Close()

	// Second run: load the file, find the map through the root, get.
	pool, err = pangolin.LoadFile(path, pangolin.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	if root, err = pangolin.Root[dirRoot](pool, 100); err != nil {
		log.Fatal(err)
	}
	d, err := pangolin.GetFromPool[dirRoot](pool, root)
	if err != nil {
		log.Fatal(err)
	}
	if m, err = hashmap.Attach(pool, d.MapAnchor); err != nil {
		log.Fatal(err)
	}
	for _, k := range []string{"lang", "tmp"} {
		v, ok, err := m.Lookup(pack(k))
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			fmt.Printf("%q not found\n", k)
			continue
		}
		fmt.Printf("%q = %q\n", k, unpack(v))
	}
	// Output:
	// "lang" = "pangolin"
	// "tmp" not found
}
