package logrec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/pangolin-go/pangolin/internal/layout"
	"github.com/pangolin-go/pangolin/internal/nvm"
)

const (
	kindData     uint16 = 1
	kindSnapshot uint16 = 2
)

func newLog(t *testing.T, replicate bool) (*nvm.Device, layout.Geometry, *Manager) {
	t.Helper()
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	Format(dev, geo)
	m, err := NewManager(dev, geo, replicate)
	if err != nil {
		t.Fatal(err)
	}
	return dev, geo, m
}

// reopen builds a fresh manager over a (possibly crashed) device.
func reopen(t *testing.T, dev *nvm.Device, geo layout.Geometry, replicate bool) *Manager {
	t.Helper()
	m, err := NewManager(dev, geo, replicate)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFreshPoolHasNoPending(t *testing.T) {
	_, _, m := newLog(t, true)
	if logs := m.Recover(); len(logs) != 0 {
		t.Fatalf("fresh pool has %d pending logs", len(logs))
	}
	if m.FreeLanes() != int(layout.Default().NumLanes) {
		t.Fatalf("free lanes = %d", m.FreeLanes())
	}
}

func TestRedoCommitRecoverCycle(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	p1 := []byte("first record")
	p2 := bytes.Repeat([]byte{7}, 500)
	if err := w.Append(kindData, p1); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(kindData, p2); err != nil {
		t.Fatal(err)
	}
	w.Commit()

	// Crash after commit: the log must replay.
	crashed := dev.CrashCopy(nvm.CrashStrict, 0)
	m2 := reopen(t, crashed, geo, true)
	logs := m2.Recover()
	if len(logs) != 1 {
		t.Fatalf("recovered %d logs, want 1", len(logs))
	}
	l := logs[0]
	if l.State != StateRedoCommitted {
		t.Fatalf("state %d", l.State)
	}
	if len(l.Records) != 2 ||
		!bytes.Equal(l.Records[0].Payload, p1) ||
		!bytes.Equal(l.Records[1].Payload, p2) {
		t.Fatalf("records corrupted: %d recs", len(l.Records))
	}
	if err := m2.ClearRecovered(l); err != nil {
		t.Fatal(err)
	}
	// Cleared: nothing pending on the next open.
	m3 := reopen(t, crashed, geo, true)
	if logs := m3.Recover(); len(logs) != 0 {
		t.Fatalf("%d logs after clear", len(logs))
	}
}

func TestUncommittedRedoDiscardedOnCrash(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(kindData, []byte("never committed")); err != nil {
		t.Fatal(err)
	}
	// No Commit. Crash.
	crashed := dev.CrashCopy(nvm.CrashStrict, 1)
	m2 := reopen(t, crashed, geo, true)
	if logs := m2.Recover(); len(logs) != 0 {
		t.Fatalf("uncommitted log surfaced: %d", len(logs))
	}
	if m2.FreeLanes() != int(geo.NumLanes) {
		t.Fatalf("lane leaked: %d free", m2.FreeLanes())
	}
}

func TestClearedLogDoesNotReplay(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, _ := m.Begin()
	if err := w.Append(kindData, []byte("applied tx")); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	w.Clear()
	crashed := dev.CrashCopy(nvm.CrashStrict, 2)
	m2 := reopen(t, crashed, geo, true)
	if logs := m2.Recover(); len(logs) != 0 {
		t.Fatalf("cleared log resurrected: %d", len(logs))
	}
}

// TestLaneSpansPassToNextHolder: a cleared writer hands its lane's span
// list to the lane's next holder, emptied, and keeps no reference to it;
// the next holder's records are persisted by its own commit.
func TestLaneSpansPassToNextHolder(t *testing.T) {
	dev, geo, m := newLog(t, false)
	a, _ := m.Begin()
	for i := 0; i < 40; i++ {
		if err := a.Append(kindData, []byte("first holder")); err != nil {
			t.Fatal(err)
		}
	}
	a.Commit()
	a.Clear()
	if a.spans != nil {
		t.Fatal("a cleared writer still holds its lane's span list")
	}
	b, _ := m.Begin()
	if b.lane != a.lane || len(b.spans) != 0 || cap(b.spans) < 80 {
		t.Fatalf("lane %d -> %d: next holder's span list len %d cap %d, want the first's, emptied",
			a.lane, b.lane, len(b.spans), cap(b.spans))
	}
	p := []byte("second holder")
	if err := b.Append(kindData, p); err != nil {
		t.Fatal(err)
	}
	b.Commit()
	logs := reopen(t, dev.CrashCopy(nvm.CrashStrict, 3), geo, false).Recover()
	if len(logs) != 1 || len(logs[0].Records) != 1 || !bytes.Equal(logs[0].Records[0].Payload, p) {
		t.Fatalf("recovered %+v, want the second holder's one record", logs)
	}
}

func TestUndoValidPrefix(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, _ := m.Begin()
	w.Activate()
	for i := 0; i < 3; i++ {
		if err := w.AppendDurable(kindSnapshot, []byte{byte(i), 0xEE}); err != nil {
			t.Fatal(err)
		}
	}
	// Fourth record written but NOT persisted: must not be part of the
	// recovered prefix in strict crash mode.
	if err := w.Append(kindSnapshot, []byte{9, 9}); err != nil {
		t.Fatal(err)
	}
	crashed := dev.CrashCopy(nvm.CrashStrict, 3)
	m2 := reopen(t, crashed, geo, true)
	logs := m2.Recover()
	if len(logs) != 1 || logs[0].State != StateUndoActive {
		t.Fatalf("logs: %+v", logs)
	}
	if len(logs[0].Records) != 3 {
		t.Fatalf("prefix length %d, want 3", len(logs[0].Records))
	}
	for i, r := range logs[0].Records {
		if r.Payload[0] != byte(i) {
			t.Fatalf("record %d out of order", i)
		}
	}
}

func TestUndoClearedAtCommit(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, _ := m.Begin()
	w.Activate()
	if err := w.AppendDurable(kindSnapshot, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	w.Clear() // commit: discard rollback log
	crashed := dev.CrashCopy(nvm.CrashStrict, 4)
	m2 := reopen(t, crashed, geo, true)
	if logs := m2.Recover(); len(logs) != 0 {
		t.Fatal("cleared undo log recovered")
	}
}

func TestOverflowChaining(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, _ := m.Begin()
	// Fill far beyond one lane: forces several extents.
	payload := bytes.Repeat([]byte{0xAB}, 8000)
	total := int(geo.LaneSize/8000) + int(geo.OverflowExtSize/8000)*2 + 4
	for i := 0; i < total; i++ {
		payload[0] = byte(i)
		if err := w.Append(kindData, payload); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.exts) == 0 {
		t.Fatal("no overflow extents used")
	}
	w.Commit()
	crashed := dev.CrashCopy(nvm.CrashStrict, 5)
	m2 := reopen(t, crashed, geo, true)
	logs := m2.Recover()
	if len(logs) != 1 {
		t.Fatalf("recovered %d logs", len(logs))
	}
	if len(logs[0].Records) != total {
		t.Fatalf("records %d, want %d", len(logs[0].Records), total)
	}
	for i, r := range logs[0].Records {
		if r.Payload[0] != byte(i) || len(r.Payload) != 8000 {
			t.Fatalf("record %d corrupted", i)
		}
	}
	// Extents referenced by the pending log are not re-issued.
	if got := len(m2.freeExts) + len(logs[0].Records); got == int(geo.OverflowExts) {
		t.Fatal("extent accounting did not reserve chain")
	}
	if err := m2.ClearRecovered(logs[0]); err != nil {
		t.Fatal(err)
	}
	if len(m2.freeExts) != int(geo.OverflowExts) {
		t.Fatalf("extents leaked after clear: %d free", len(m2.freeExts))
	}
}

func TestLogFullWhenExtentsExhausted(t *testing.T) {
	_, geo, m := newLog(t, false)
	w, _ := m.Begin()
	payload := bytes.Repeat([]byte{1}, int(m.MaxPayload()))
	var err error
	for i := 0; i < int(geo.OverflowExts)+int(geo.NumLanes)+10; i++ {
		if err = w.Append(kindData, payload); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("expected ErrLogFull, got %v", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	_, _, m := newLog(t, false)
	w, _ := m.Begin()
	if err := w.Append(kindData, make([]byte, m.MaxPayload()+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	if err := w.Append(endKind, nil); err == nil {
		t.Fatal("reserved kind accepted")
	}
	if err := w.Append(jumpKind, nil); err == nil {
		t.Fatal("reserved kind accepted")
	}
}

func TestLaneExhaustion(t *testing.T) {
	_, geo, m := newLog(t, false)
	var ws []*Writer
	for i := uint64(0); i < geo.NumLanes; i++ {
		w, err := m.Begin()
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	if _, err := m.Begin(); err == nil {
		t.Fatal("lane oversubscription allowed")
	}
	ws[0].Clear()
	if _, err := m.Begin(); err != nil {
		t.Fatalf("lane not recycled: %v", err)
	}
}

func TestStaleRecordsNeverValidate(t *testing.T) {
	dev, geo, m := newLog(t, true)
	// Use a lane, commit, clear: stale bytes remain in the lane.
	w, _ := m.Begin()
	if err := w.Append(kindData, []byte("stale data from tx 1")); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	w.Clear()
	// Reuse the same lane: begin, append nothing, commit.
	w2, _ := m.Begin()
	if w2.lane != w.lane {
		t.Skip("lane not reused; free list order changed")
	}
	w2.Commit()
	crashed := dev.CrashCopy(nvm.CrashStrict, 6)
	m2 := reopen(t, crashed, geo, true)
	logs := m2.Recover()
	if len(logs) != 1 {
		t.Fatalf("logs %d", len(logs))
	}
	if len(logs[0].Records) != 0 {
		t.Fatalf("stale records leaked into new log: %d", len(logs[0].Records))
	}
}

func TestReplicaUsedWhenPrimaryPoisoned(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, _ := m.Begin()
	payload := bytes.Repeat([]byte{0x5C}, 300)
	if err := w.Append(kindData, payload); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	// Media error wipes the primary lane page.
	dev.Poison(geo.LaneOff(w.lane))
	m2 := reopen(t, dev, geo, true)
	logs := m2.Recover()
	if len(logs) != 1 {
		t.Fatalf("recovered %d logs with poisoned primary", len(logs))
	}
	if len(logs[0].Records) != 1 || !bytes.Equal(logs[0].Records[0].Payload, payload) {
		t.Fatal("replica content wrong")
	}
}

func TestUnreplicatedPoisonedCommittedLaneFails(t *testing.T) {
	dev, geo, m := newLog(t, false)
	w, _ := m.Begin()
	if err := w.Append(kindData, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	dev.Poison(geo.LaneOff(w.lane))
	if _, err := NewManager(dev, geo, false); err == nil {
		t.Fatal("poisoned committed lane without replication must fail open")
	}
}

func TestSeqSurvivesReopen(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, _ := m.Begin()
	seq1 := w.seq
	w.Commit()
	w.Clear()
	m2 := reopen(t, dev, geo, true)
	w2, _ := m2.Begin()
	if w2.seq <= seq1 {
		t.Fatalf("sequence went backwards: %d then %d", seq1, w2.seq)
	}
}

func TestConcurrentWriters(t *testing.T) {
	dev, geo, m := newLog(t, true)
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 10; j++ {
				w, err := m.Begin()
				if err != nil {
					panic(err)
				}
				n := rng.Intn(2000) + 1
				p := make([]byte, n)
				p[0] = byte(i)
				if err := w.Append(kindData, p); err != nil {
					panic(err)
				}
				w.Commit()
				w.Clear()
			}
		}(i)
	}
	wg.Wait()
	if m.FreeLanes() != int(geo.NumLanes) {
		t.Fatalf("lanes leaked: %d free", m.FreeLanes())
	}
	m2 := reopen(t, dev, geo, true)
	if logs := m2.Recover(); len(logs) != 0 {
		t.Fatalf("%d stray logs", len(logs))
	}
}

// Crash-point sweep over the redo commit path: the commit runs once, and
// at every persistence point the persist hook checks that the crash image
// recovers all-or-nothing, while the run goes on. After the commit, the
// point past the last is checked the same way.
func TestRedoCrashSweep(t *testing.T) {
	payloads := [][]byte{
		[]byte("alpha"), bytes.Repeat([]byte{2}, 700), []byte("gamma"),
	}
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	img := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	Format(dev, geo)
	m, err := NewManager(dev, geo, true)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := 0
	check := func() {
		for seed := int64(0); seed < 3; seed++ {
			dev.CrashCopyInto(img, nvm.CrashEvictRandom, seed)
			m2, err := NewManager(img, geo, true)
			if err != nil {
				t.Fatalf("crashAt=%d seed=%d: open: %v", crashAt, seed, err)
			}
			logs := m2.Recover()
			if len(logs) > 1 {
				t.Fatalf("crashAt=%d: %d logs", crashAt, len(logs))
			}
			if len(logs) == 1 && logs[0].State == StateRedoCommitted {
				// Committed: every record must be intact.
				if len(logs[0].Records) != len(payloads) {
					t.Fatalf("crashAt=%d seed=%d: committed log has %d/%d records",
						crashAt, seed, len(logs[0].Records), len(payloads))
				}
				for i, r := range logs[0].Records {
					if !bytes.Equal(r.Payload, payloads[i]) {
						t.Fatalf("crashAt=%d: record %d corrupt", crashAt, i)
					}
				}
			}
		}
	}
	dev.SetPersistHook(func() {
		if crashAt++; !t.Failed() {
			check()
		}
	})
	w, err := m.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(kindData, p); err != nil {
			t.Fatal(err)
		}
	}
	w.Commit()
	dev.SetPersistHook(nil)
	if crashAt == 0 {
		t.Fatal("hook never fired")
	}
	crashAt++
	check()
}

func TestMaxPayloadPositive(t *testing.T) {
	_, _, m := newLog(t, false)
	if m.MaxPayload() < 4096 {
		t.Fatalf("MaxPayload %d too small to be useful", m.MaxPayload())
	}
}

func TestRecoverBlocksBegin(t *testing.T) {
	dev, geo, m := newLog(t, true)
	w, _ := m.Begin()
	if err := w.Append(kindData, []byte("pending")); err != nil {
		t.Fatal(err)
	}
	w.Commit()
	crashed := dev.CrashCopy(nvm.CrashStrict, 7)
	m2 := reopen(t, crashed, geo, true)
	if _, err := m2.Begin(); err == nil {
		t.Fatal("Begin allowed with recovery pending")
	}
	for _, l := range m2.Recover() {
		if err := m2.ClearRecovered(l); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m2.Begin(); err != nil {
		t.Fatalf("Begin after recovery: %v", err)
	}
}

func ExampleManager() {
	geo := layout.Default()
	dev := nvm.New(geo.PoolSize(), nvm.Options{TrackPersistence: true})
	Format(dev, geo)
	m, _ := NewManager(dev, geo, true)
	w, _ := m.Begin()
	_ = w.Append(1, []byte("redo bytes"))
	w.Commit() // durability point
	// ... apply the logged updates ...
	w.Clear() // release the lane
	fmt.Println(m.FreeLanes() == int(geo.NumLanes))
	// Output: true
}
