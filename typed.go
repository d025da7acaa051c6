package pangolin

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"unsafe"
)

// Typed views give the C-like programming feel of the paper's listings:
// a persistent object is declared as a plain Go struct (fixed size, no Go
// pointers — persistent references are OIDs) and accessed through a typed
// pointer into the micro-buffer or NVMM bytes.
//
//	type Node struct {
//	    Next  pangolin.OID
//	    Value uint64
//	}
//	n, _ := pangolin.Open[Node](tx, oid)
//	n.Value = 42

// podVerdict is checkPOD's cached answer for one type.
type podVerdict struct {
	t   reflect.Type
	err error // nil if the type may live in persistent memory
}

// podCache holds every verdict so far as an immutable slice, swapped in
// whole when a new type is first seen. Every View[T] call consults it, so
// the lookup is one atomic load and a scan of a program's handful of
// persistent types: no lock, no hashing, no boxing.
var podCache atomic.Pointer[[]podVerdict]

// checkPOD verifies that T is safe to overlay on persistent bytes: fixed
// size and free of Go pointers (pointers, maps, slices, strings, chans,
// funcs, interfaces). The result is cached per type.
func checkPOD(t reflect.Type) error {
	for {
		var seen []podVerdict
		old := podCache.Load()
		if old != nil {
			seen = *old
		}
		for i := range seen {
			if seen[i].t == t {
				return seen[i].err
			}
		}
		err := validatePOD(t)
		next := append(seen[:len(seen):len(seen)], podVerdict{t, err})
		if podCache.CompareAndSwap(old, &next) {
			return err
		}
	}
}

func validatePOD(t reflect.Type) error {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return nil
	case reflect.Array:
		return validatePOD(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if err := validatePOD(t.Field(i).Type); err != nil {
				return fmt.Errorf("field %s: %w", t.Field(i).Name, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("kind %v cannot live in persistent memory (store OIDs, not Go pointers)", t.Kind())
	}
}

// View reinterprets data as *T. T must be pointer-free and fit in data;
// data must come from this library (micro-buffer or device views are
// 8-byte aligned). The view lives as long as data does: a micro-buffer's
// until its transaction commits or aborts (the buffer is then recycled),
// and a pool's bytes until the pool's Close when the pool is on an
// untracked device (a PoolSet shard's, whose memory Close releases), as a
// pmemobj_direct pointer lives until pmemobj_close.
func View[T any](data []byte) (*T, error) {
	// Every object access of every structure comes through here, so T is
	// named through a nil *T: no zero T is built or boxed per call.
	var p *T
	t := reflect.TypeOf(p).Elem()
	if err := checkPOD(t); err != nil {
		return nil, fmt.Errorf("pangolin: type %v: %w", t, err)
	}
	if size := unsafe.Sizeof(*p); uint64(size) > uint64(len(data)) {
		return nil, fmt.Errorf("pangolin: type %v (%d B) exceeds object data (%d B)", t, size, len(data))
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("pangolin: empty data")
	}
	if uintptr(unsafe.Pointer(&data[0]))%unsafe.Alignof(*p) != 0 {
		return nil, fmt.Errorf("pangolin: data misaligned for %v", t)
	}
	return (*T)(unsafe.Pointer(&data[0])), nil
}

// SizeOf returns T's persistent size.
func SizeOf[T any]() uint64 {
	var p *T
	return uint64(unsafe.Sizeof(*p))
}

// Alloc allocates an object sized for T and returns a typed view of its
// (zeroed) user data, valid until the transaction ends.
func Alloc[T any](tx *Tx, typ uint32) (OID, *T, error) {
	oid, data, err := tx.Alloc(SizeOf[T](), typ)
	if err != nil {
		return NilOID, nil, err
	}
	v, err := View[T](data)
	if err != nil {
		return NilOID, nil, err
	}
	return oid, v, nil
}

// Open returns a typed writable view of the object's micro-buffer,
// marking the whole struct as modified (the common whole-node update; use
// tx.AddRange for finer ranges).
func Open[T any](tx *Tx, oid OID) (*T, error) {
	data, err := tx.AddRange(oid, 0, SizeOf[T]())
	if err != nil {
		return nil, err
	}
	return View[T](data)
}

// Getter reads an object's user data: Pool.Get outside a transaction,
// Tx.Get inside one. A structure's lookup walk takes one, so its Lookup
// and LookupTx share one descent.
type Getter func(OID) ([]byte, error)

// Read returns a typed read-only view of the object read through get.
func Read[T any](get Getter, oid OID) (*T, error) {
	data, err := get(oid)
	if err != nil {
		return nil, err
	}
	return View[T](data)
}

// Get returns a typed read-only view of the object (pgl_get semantics:
// see Pool.Get for the verification rule).
func Get[T any](tx *Tx, oid OID) (*T, error) { return Read[T](tx.Get, oid) }

// GetFromPool is Get without a transaction. The view points into the
// pool: on a PoolSet shard it is invalid after the pool's Close (see
// View).
func GetFromPool[T any](p *Pool, oid OID) (*T, error) { return Read[T](p.Get, oid) }

// Root returns the pool's root object as type T, allocating it on first
// use.
func Root[T any](p *Pool, typ uint32) (OID, error) {
	return p.RootOID(SizeOf[T](), typ)
}
