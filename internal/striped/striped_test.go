package striped

import (
	"sync"
	"testing"
)

// TestCounterSumsExactly: every Add lands in exactly one cell, from any
// number of goroutines at any stack depth.
func TestCounterSumsExactly(t *testing.T) {
	var c Counter
	const goroutines, adds = 16, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var deeper func(d int)
			deeper = func(d int) {
				if d > 0 {
					var pad [512]byte // move the probe across hash buckets
					deeper(d - 1)
					_ = pad
					return
				}
				for i := 0; i < adds; i++ {
					c.Add(uint64(g + 1))
				}
			}
			deeper(g)
		}(g)
	}
	wg.Wait()
	want := uint64(adds * goroutines * (goroutines + 1) / 2)
	if got := c.Load(); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after Reset Load = %d", got)
	}
}

// TestCounterSpreads: concurrent goroutines do not all share one cell.
func TestCounterSpreads(t *testing.T) {
	var c Counter
	// All 32 are alive at once, so no two share a stack.
	var started, wg sync.WaitGroup
	release := make(chan struct{})
	for g := 0; g < 32; g++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			<-release
			c.Add(1)
		}()
	}
	started.Wait()
	close(release)
	wg.Wait()
	used := 0
	for i := range c.cells {
		if c.cells[i].n.Load() != 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("32 goroutines used %d cell(s)", used)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
