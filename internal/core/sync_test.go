package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// TestSyncStoreConcurrentUse hammers a SyncStore from several goroutines;
// run under -race this verifies the serialization wrapper.
func TestSyncStoreConcurrentUse(t *testing.T) {
	base, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	st := NewSyncStore(base)
	doc, err := st.Load(xmlgen.TwoLevel(500))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := st.Lookup(doc.Elems[(g*53+i)%500].Start); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := st.LookupSpan(doc.Elems[(g*31+i)%500]); err != nil {
						errCh <- err
						return
					}
				default:
					e, err := st.InsertElementBefore(doc.Elems[(g*17+i)%500].Start)
					if err != nil {
						errCh <- err
						return
					}
					if err := st.DeleteElement(e); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", st.Count())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncStoreConcurrentBatchReaders is the group-commit concurrency
// property test: one writer streams ApplyBatch transactions into a durable
// file-backed SyncStore while reader goroutines race it on the shared read
// path. Under -race this exercises the RWMutex split, the pager's shared
// mode, and the WAL group-commit overlay (readers may observe blocks whose
// group is still being flushed). Readers assert order invariants that must
// hold at every batch boundary: spans never invert and an element's start
// ordinal precedes its end ordinal.
func TestSyncStoreConcurrentBatchReaders(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Open(Options{
		Scheme: SchemeWBox, Ordinal: true, BlockSize: 512,
		Backend: fb, Durable: true,
		Durability: &pager.Durability{Every: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewSyncStore(base)
	doc, err := st.Load(xmlgen.TwoLevel(200))
	if err != nil {
		t.Fatal(err)
	}

	// The writer publishes the grown element set; readers only ever touch a
	// published snapshot, so every element they see is live (the writer
	// never deletes).
	var published atomic.Value
	published.Store(append([]order.ElemLIDs(nil), doc.Elems...))

	const (
		readers    = 4
		batches    = 40
		insertsPer = 4
	)
	done := make(chan struct{})
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer close(done)
		elems := append([]order.ElemLIDs(nil), doc.Elems...)
		for i := 0; i < batches; i++ {
			ops := make([]Op, 0, 2*insertsPer)
			for j := 0; j < insertsPer; j++ {
				at := elems[(i*37+j*11)%len(elems)]
				ops = append(ops,
					Op{Kind: OpInsertBefore, LID: at.End},
					Op{Kind: OpLookupSpan, Elem: at},
				)
			}
			results, err := st.ApplyBatch(ops)
			if err != nil {
				errCh <- err
				return
			}
			for k, op := range ops {
				if op.Kind == OpInsertBefore {
					elems = append(elems, results[k].Elem)
				}
			}
			published.Store(append([]order.ElemLIDs(nil), elems...))
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				elems := published.Load().([]order.ElemLIDs)
				e := elems[(g*101+i*13)%len(elems)]
				sp, err := st.LookupSpan(e)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: lookup-span: %w", g, err)
					return
				}
				if sp.Start >= sp.End {
					errCh <- fmt.Errorf("reader %d: inverted span [%d, %d]", g, sp.Start, sp.End)
					return
				}
				os, err := st.OrdinalLookup(e.Start)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: ordinal start: %w", g, err)
					return
				}
				oe, err := st.OrdinalLookup(e.End)
				if err != nil {
					errCh <- fmt.Errorf("reader %d: ordinal end: %w", g, err)
					return
				}
				if os >= oe {
					errCh <- fmt.Errorf("reader %d: ordinal(start)=%d >= ordinal(end)=%d", g, os, oe)
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	want := uint64(2 * (200 + batches*insertsPer))
	if got := st.Count(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// The whole history must be recoverable from disk: every ApplyBatch
	// ticket resolved before its caller returned, so the reopened store
	// holds exactly the final count.
	fb2, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	re, err := OpenExisting(fb2, Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if got := re.Count(); got != want {
		t.Fatalf("reopened count = %d, want %d", got, want)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncStoreWriteLockWaitsRecordedOnce checks that every write-lock
// acquisition through SyncStore yields exactly one lock_wait_write
// observation: on the operation's row when the call runs one, on the
// "store" row when it runs none (Save, Health, a Load rejected before it
// began), including a Health scrape parked behind a held writer.
func TestSyncStoreWriteLockWaitsRecordedOnce(t *testing.T) {
	base, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	st := NewSyncStore(base)
	// waits returns the lock_wait_write observation count over all rows,
	// and the count and summed nanoseconds of the "store" row.
	waits := func() (total, store, storeNs uint64) {
		for row, phases := range st.Metrics().Phases {
			h := phases[obs.PhaseLockWaitWrite.String()]
			total += h.Total()
			if row == "store" {
				store, storeNs = h.Total(), h.Sum
			}
		}
		return total, store, storeNs
	}
	var doc *Document
	calls := []struct {
		name    string
		onStore bool
		call    func() error
	}{
		{"load", false, func() (err error) { doc, err = st.Load(xmlgen.TwoLevel(20)); return err }},
		{"insert", false, func() error { _, err := st.InsertElementBefore(doc.Elems[3].Start); return err }},
		{"batch", false, func() error {
			_, err := st.ApplyBatch([]Op{{Kind: OpInsertBefore, LID: doc.Elems[5].End}})
			return err
		}},
		{"delete", false, func() error { return st.DeleteElement(doc.Elems[7]) }},
		{"check", false, st.CheckInvariants},
		{"save", true, st.Save},
		{"health", true, func() error { st.Health(); return nil }},
		{"rejected load", true, func() error {
			if _, err := st.Load(&xmlgen.Tree{}); err == nil {
				return fmt.Errorf("empty tree loaded")
			}
			return nil
		}},
	}
	for _, c := range calls {
		t0, s0, _ := waits()
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t1, s1, _ := waits()
		if got := t1 - t0; got != 1 {
			t.Errorf("%s: %d lock_wait_write observations, want 1", c.name, got)
		}
		want := uint64(0)
		if c.onStore {
			want = 1
		}
		if got := s1 - s0; got != want {
			t.Errorf("%s: %d observations on the store row, want %d", c.name, got, want)
		}
	}

	// A Health scrape behind a held writer records its whole wait once.
	_, s0, ns0 := waits()
	const hold = 20 * time.Millisecond
	st.mu.Lock()
	done := make(chan struct{})
	go func() { st.Health(); close(done) }()
	time.Sleep(hold)
	st.mu.Unlock()
	<-done
	_, s1, ns1 := waits()
	if got := s1 - s0; got != 1 {
		t.Fatalf("held-writer Health: %d store-row observations, want 1", got)
	}
	if got := time.Duration(ns1 - ns0); got < hold {
		t.Errorf("held-writer Health: recorded wait %v, want at least %v", got, hold)
	}
}
