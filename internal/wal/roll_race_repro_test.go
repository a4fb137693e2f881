package wal

import (
	"testing"
	"time"
)

// Emulates: waiter parked in awaitLocked while a group-commit flush is
// in flight; the flush completes and an Append needing a roll wins the
// mutex race before the waiter wakes. rollLocked fsyncs the waiter's
// bytes, then resets written/flushed to 0 for the new segment. Waiters
// compare commit sequences, which a roll does not reset.
func TestRollStrandsGroupCommitWaiter(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(Options{Dir: dir, Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}

	// Fake an in-flight leader flush so the next committer parks.
	w.mu.Lock()
	w.flushing = true
	w.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := w.Append([]*Record{{Kind: KindCheckpointBegin}})
		done <- err
	}()

	// Wait until the committer has written its chunk and parked.
	for {
		w.mu.Lock()
		written := w.written
		w.mu.Unlock()
		if written > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let it reach cond.Wait

	// Leader finishes; roller wins the lock race and rolls the segment.
	w.mu.Lock()
	w.flushing = false
	if err := w.rollLocked(); err != nil {
		w.mu.Unlock()
		t.Fatal(err)
	}
	w.mu.Unlock()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("durable append failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Append never returned after segment roll; fsyncs so far: %d", w.Fsyncs())
	}
}
