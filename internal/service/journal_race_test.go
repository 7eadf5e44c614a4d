package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStoreWritersRacingCompaction hammers Create/UpdateStatus from several
// goroutines while another forces compactions as fast as it can. Run with
// -race. The store must stay coherent (every write it acknowledged survives a
// reopen) because the snapshot, the rewrite, and every append all happen
// under the store mutex — a compaction can neither miss a racing record nor
// tear one.
func TestStoreWritersRacingCompaction(t *testing.T) {
	dir := t.TempDir()
	// Manual compactions only. Every append fsyncs under the store mutex, so
	// the writers queue behind each other's fsyncs; the log below shows they
	// and the compactor still interleave.
	st, _, err := OpenStore(dir, DurableOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var (
		stop     atomic.Bool
		wg       sync.WaitGroup
		created  atomic.Int64
		compacts atomic.Int64
	)
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w)
			for !stop.Load() {
				req, err := st.Create(KindCheckpoint, Spec{Tenant: tenant})
				if err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
				created.Add(1)
				if _, err := st.UpdateStatus(req.ID, func(now time.Time, r *Request) {
					r.Status.Phase = PhaseSucceeded
					r.Status.ObservedGeneration = r.Generation
					r.Status.setCondition(now, CondComplete, true, "Succeeded", "")
				}); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := st.Compact(); err != nil {
				errs <- fmt.Errorf("compactor: %v", err)
				return
			}
			compacts.Add(1)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if created.Load() == 0 || compacts.Load() == 0 {
		t.Fatalf("race produced no contention: %d creates, %d compactions", created.Load(), compacts.Load())
	}
	t.Logf("%d creates, %d compactions", created.Load(), compacts.Load())

	wantImage := storeImage(t, st)
	wantRev := st.Rev()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _, err := OpenStore(dir, DurableOptions{CompactBytes: -1})
	if err != nil {
		t.Fatalf("reopen after %d creates / %d compactions: %v", created.Load(), compacts.Load(), err)
	}
	defer st2.Close()
	if got := storeImage(t, st2); got != wantImage {
		t.Fatalf("replay after racing compactions diverged (%d creates, %d compactions)",
			created.Load(), compacts.Load())
	}
	if st2.Rev() != wantRev {
		t.Fatalf("rev after racing compactions = %d, want %d", st2.Rev(), wantRev)
	}
}
