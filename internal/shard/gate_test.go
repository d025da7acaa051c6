package shard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pangolin-go/pangolin/internal/store"
	"github.com/pangolin-go/pangolin/internal/store/pangolinstore"
)

// gateReleased waits up to a second for the worker's reader gate to be
// free: a worker delivers a group's replies just before it releases the
// gate, so a path that ended may still hold it for a moment.
func gateReleased(w *worker) error {
	deadline := time.Now().Add(time.Second)
	for !w.gate.TryLock() {
		if time.Now().After(deadline) {
			return errors.New("the reader gate is still held a second after the path ended")
		}
		time.Sleep(time.Millisecond)
	}
	w.gate.Unlock()
	return nil
}

// gatePaths drive each way the worker's reader gate is taken and
// released. Each runs against a fresh, empty one-shard set (w is its
// worker), checks the gate is free when it ends, and checks it took the
// path it names.
var gatePaths = []struct {
	name string
	run  func(s *Set, w *worker) error
}{
	{"group commit", func(s *Set, w *worker) error {
		for _, r := range s.Batch([]BatchOp{{Kind: BatchPut, K: 1, V: 1}, {Kind: BatchPut, K: 2, V: 2}}) {
			if r.Err != nil {
				return r.Err
			}
		}
		if err := gateReleased(w); err != nil {
			return err
		}
		if st := s.Stats(); st.Batches != 1 {
			return fmt.Errorf("%d group commits, want 1", st.Batches)
		}
		return nil
	}},
	{"group fallback", func(s *Set, w *worker) error {
		res := s.Batch([]BatchOp{{Kind: BatchPut, K: 1, V: 1}, {Kind: 99, K: 2}})
		if res[0].Err != nil || res[1].Err == nil {
			return fmt.Errorf("fallback results %+v: want the put to succeed and the bad op to fail", res)
		}
		if err := gateReleased(w); err != nil {
			return err
		}
		if st := s.Stats(); st.GroupFallbacks != 1 {
			return fmt.Errorf("%d group fallbacks, want 1", st.GroupFallbacks)
		}
		return nil
	}},
	{"sync", func(s *Set, w *worker) error {
		if err := s.Sync(); err != nil {
			return err
		}
		return gateReleased(w)
	}},
	{"crash image", func(s *Set, w *worker) error {
		if err := s.CrashSave(1); err != nil {
			return err
		}
		return gateReleased(w)
	}},
	{"full scrub", func(s *Set, w *worker) error {
		if _, err := s.Scrub(); err != nil {
			return err
		}
		if err := gateReleased(w); err != nil {
			return err
		}
		if st := s.Stats(); st.ScrubSteps < 2 {
			return fmt.Errorf("the pass ran %d steps, want several", st.ScrubSteps)
		}
		return nil
	}},
	{"heal retry", func(s *Set, w *worker) error {
		const k = 7
		if err := scribbleSegmentPointer(s, k); err != nil {
			return err
		}
		if err := s.Put(k, 2); err != nil {
			return err
		}
		if err := gateReleased(w); err != nil {
			return err
		}
		if st := s.Stats(); st.BgRepairs == 0 || st.ScrubSteps != 0 {
			return fmt.Errorf("%d steps, %d repairs; want a repair and no scrub step", st.ScrubSteps, st.BgRepairs)
		}
		return nil
	}},
	{"shutdown with a scrub waiter", func(s *Set, w *worker) error {
		// Close the queue as stop does while holding the gate, so the
		// pass gets at most one of its several steps in before the loop
		// sees the close: the waiter is still pending at shutdown. Abandon
		// then finds the worker closed and waits for it to exit.
		w.gate.Lock()
		reply := w.send(request{op: opScrub})
		w.closed.Store(true)
		close(w.reqs)
		w.gate.Unlock()
		if r := <-reply; !errors.Is(r.err, ErrShuttingDown) {
			return fmt.Errorf("scrub waiter got %+v, want ErrShuttingDown", r)
		}
		s.Abandon()
		return gateReleased(w)
	}},
	{"read served", func(s *Set, w *worker) error {
		if err := s.Put(1, 1); err != nil {
			return err
		}
		settle(s)
		if _, _, err := s.Get(1); err != nil {
			return err
		}
		if err := gateReleased(w); err != nil {
			return err
		}
		if served, _, _, _ := w.getReads.load(); served != 1 {
			return fmt.Errorf("%d reads served on the gated path, want 1", served)
		}
		return nil
	}},
	{"read bounced", func(s *Set, w *worker) error {
		if err := s.Put(1, 1); err != nil {
			return err
		}
		ps := w.st.(*pangolinstore.Store)
		ps.Pool().InjectMediaError(ps.Map().Anchor().Off)
		settle(s)
		if _, _, err := s.Get(1); err != nil {
			return err
		}
		if err := gateReleased(w); err != nil {
			return err
		}
		if _, _, _, faults := w.getReads.load(); faults != 1 {
			return fmt.Errorf("%d reads bounced on a fault, want 1", faults)
		}
		return nil
	}},
	{"read snapshot too old", func(s *Set, w *worker) error {
		sn, err := s.OpenSnapshot()
		if err != nil {
			return err
		}
		defer sn.Release()
		// Drop the shard's pin under the set snapshot, so the scan reaches
		// the gated read and meets the verdict there.
		sn.snaps[0].Release()
		settle(s)
		if _, _, _, err := sn.Scan(0, ^uint64(0), 10); !errors.Is(err, store.ErrSnapshotTooOld) {
			return fmt.Errorf("scan of a dropped pin = %w, want ErrSnapshotTooOld", err)
		}
		if err := gateReleased(w); err != nil {
			return err
		}
		if _, _, fallbacks, faults := w.snapReads.load(); fallbacks+faults != 0 {
			return fmt.Errorf("the verdict bounced to the worker (%d fallbacks, %d faults)", fallbacks, faults)
		}
		return nil
	}},
	{"read shutting down", func(s *Set, w *worker) error {
		s.Abandon()
		if _, _, err := s.Get(1); !errors.Is(err, ErrShuttingDown) {
			return fmt.Errorf("get after Abandon = %w, want ErrShuttingDown", err)
		}
		return gateReleased(w)
	}},
}

// TestGateReleasedOnEveryPath: every path that takes the reader gate
// releases it. A leak shows up here, naming its path, rather than as a
// later deadlock: each path runs under a deadline, since a worker that
// kept the gate blocks on it at its next unit of work.
func TestGateReleasedOnEveryPath(t *testing.T) {
	for _, p := range gatePaths {
		t.Run(p.name, func(t *testing.T) {
			s := newSet(t, t.TempDir(), 1, Options{})
			done := make(chan error, 1)
			go func() { done <- p.run(s, s.workers[0]) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
			case <-time.After(5 * time.Second):
				// The set is left running: closing it would wait on the
				// stuck worker.
				t.Fatalf("%s: still running after 5s: the worker is blocked on its own gate", p.name)
			}
			s.Abandon()
		})
	}
}
