package shard

import (
	"errors"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"github.com/pangolin-go/pangolin"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

// defaultServeOptions is pglserve's default shard configuration: a
// hashmap on ModePangolinMLPC pools of eight zones.
func defaultServeOptions() Options {
	geo := pangolin.DefaultGeometry()
	geo.NumZones = 8
	return Options{Pangolin: pangolin.Config{Mode: pangolin.ModePangolinMLPC, Geometry: geo}}
}

// liveHeap returns the Go heap's live bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestServedSetHeapFootprint: pglserve's default set — four shards of
// eight zones, 67 MB of pool capacity — adds less than 4 MB to the Go
// heap, because its devices are mappings outside it; the mapped-bytes
// gauge counts the capacity, and returns to where it was once the set is
// abandoned, or closed. A race build keeps the devices on the heap,
// where the detector sees them, so there the heap grows by the capacity.
func TestServedSetHeapFootprint(t *testing.T) {
	opts := defaultServeOptions()
	capacity := 4 * int64(opts.Pangolin.Geometry.PoolSize())
	for _, end := range []string{"Abandon", "Close"} {
		mapped, heap := nvm.MappedBytes(), liveHeap()
		s := newSet(t, t.TempDir(), 4, opts)
		rise := int64(liveHeap()) - int64(heap)
		t.Logf("%s: live heap rose %d bytes for %d bytes of capacity", end, rise, capacity)
		if got := nvm.MappedBytes() - mapped; got != capacity {
			t.Fatalf("%s: the set maps %d bytes, want its capacity %d", end, got, capacity)
		}
		switch {
		case raceEnabled && rise < capacity:
			t.Errorf("%s: race build: live heap rose %d bytes, less than the set's capacity %d", end, rise, capacity)
		case !raceEnabled && rise >= 4<<20:
			t.Errorf("%s: live heap rose %d bytes for a set of %d bytes' capacity", end, rise, capacity)
		}
		if end == "Close" {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			s.Abandon()
		}
		if got := nvm.MappedBytes(); got != mapped {
			t.Fatalf("%s: %d bytes mapped after the set ended, %d before it", end, got, mapped)
		}
	}
}

// TestReadsRacingAbandonNeverFault: fast-path GETs, all-GET batches and
// scans racing Set.Abandon either finish or fail with ErrShuttingDown.
// Abandon releases each shard's memory under the shard's reader gate
// once its worker has stopped, so no read reaches a released pool: in a
// non-race build such a read faults and kills the test binary.
func TestReadsRacingAbandonNeverFault(t *testing.T) {
	s := newSet(t, t.TempDir(), 2, Options{})
	const keys = 256
	for k := uint64(0); k < keys; k++ {
		if err := s.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]BatchOp, 16)
	for i := range batch {
		batch[i] = BatchOp{Kind: BatchGet, K: uint64(i * 7)}
	}
	check := func(err error) bool {
		if err != nil && !errors.Is(err, ErrShuttingDown) {
			t.Errorf("read racing Abandon: %v", err)
		}
		return err == nil
	}
	var wg, running sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			defer once.Do(running.Done)
			for i := uint64(0); ; i++ {
				if i == 64 {
					once.Do(running.Done)
				}
				var ok bool
				switch g {
				case 0:
					_, _, err := s.Get(i % keys)
					ok = check(err)
				case 1:
					ok = true
					for _, r := range s.Batch(batch) {
						ok = check(r.Err) && ok
					}
				default:
					_, _, _, err := s.Scan(i%keys, keys, 32)
					ok = check(err)
				}
				if !ok {
					return
				}
			}
		}()
	}
	running.Wait()
	s.Abandon()
	wg.Wait()
}
