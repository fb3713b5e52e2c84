package crashmatrix

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"boxes/internal/core"
	"boxes/internal/fsck"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// flipByte XORs one bit into the file at off.
func flipByte(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= mask
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionHeaderFlip: a flipped bit in the file header must surface
// as a typed corruption error at open, never as a store running on
// garbage geometry.
func TestCorruptionHeaderFlip(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.box")
	buildBase(t, base, matrix()[0])

	for _, off := range []int64{9, 20, 30, 45} { // blockSize, freeHead, metaRoot, headerCRC
		crash := filepath.Join(dir, "hdr.box")
		copyStore(t, base, crash)
		flipByte(t, crash, off, 0x04)
		_, err := pager.OpenFile(crash)
		if !errors.Is(err, pager.ErrCorrupt) {
			t.Fatalf("header flip at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestCorruptionBlockFlips flips one byte in every ever-allocated block —
// tree node blocks, LIDF blocks, and the metadata blob alike — and
// asserts three things: fsck names the damaged block, any failure along
// the open/check/lookup path is a typed pager.ErrCorrupt (never a panic),
// and when nothing fails the labels still match the oracle (a flip may
// not silently reorder anything).
func TestCorruptionBlockFlips(t *testing.T) {
	for _, cfg := range []schemeConfig{matrix()[0], matrix()[2], matrix()[4]} {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			base := filepath.Join(dir, "base.box")
			baseLIDs, _ := buildBase(t, base, cfg)

			fb, err := pager.OpenFile(base)
			if err != nil {
				t.Fatal(err)
			}
			bound := fb.Bound()
			if err := fb.Close(); err != nil {
				t.Fatal(err)
			}

			for id := pager.BlockID(1); id < bound; id++ {
				crash := filepath.Join(dir, "flip.box")
				copyStore(t, base, crash)
				flipByte(t, crash, int64(id)*blockSize+37, 0x20)

				rep, err := fsck.Check(crash, fsck.Options{})
				if err != nil {
					t.Fatalf("block %d: fsck refused the file: %v", id, err)
				}
				if rep.Clean() {
					t.Fatalf("block %d: fsck missed the flipped byte", id)
				}
				named := false
				for _, p := range rep.Problems {
					if p.Block == id && p.Severity == fsck.SevError {
						named = true
					}
				}
				if !named {
					t.Fatalf("block %d: fsck did not name the block: %v", id, rep.Problems)
				}

				// The normal open path must fail typed or stay correct.
				err = openAndSweep(crash, baseLIDs, cfg.ordinal)
				if err != nil && !errors.Is(err, pager.ErrCorrupt) {
					t.Fatalf("block %d: untyped failure: %v", id, err)
				}
			}
		})
	}
}

// openAndSweep opens the store, checks invariants, and looks up every
// oracle LID in order. It returns nil only if everything is consistent.
func openAndSweep(path string, lids []order.LID, ordinal bool) error {
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		return err
	}
	defer fb.Close()
	st, err := core.OpenExisting(fb, core.Options{})
	if err != nil {
		return err
	}
	if err := st.CheckInvariants(); err != nil {
		return err
	}
	o := order.NewOracle()
	o.Load(lids)
	return o.CheckAgainst(st.Labeler(), ordinal)
}

// TestCorruptionWALTail covers both WAL damage cases. A flipped byte in a
// frame of a *committed* transaction that was never applied must be a
// typed corruption error at open (the commit promised data the log can no
// longer deliver). A flipped byte in an *uncommitted* tail is discarded by
// recovery: the open succeeds and the pre-crash images are intact.
func TestCorruptionWALTail(t *testing.T) {
	// walHeaderSize(16) and the frame layout (kind u8 + id u64 + payload +
	// crc u32) are fixed by the WAL format documented in DESIGN.md.
	const walHeader = 16
	const bs = 128

	setup := func(t *testing.T, crashAt int) string {
		path := filepath.Join(t.TempDir(), "wal.box")
		fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: bs, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		var ids []pager.BlockID
		for i := 0; i < 2; i++ {
			id, err := fb.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if err := fb.Close(); err != nil {
			t.Fatal(err)
		}

		ctrl := pager.NewCrashController(crashAt, false)
		fb, err = pager.OpenFileOpts(path, pager.FileOptions{NoSync: true, DiskControl: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		fb.BeginBatch()
		img := make([]byte, bs)
		for i, id := range ids {
			img[0] = byte(0xA0 + i)
			if err := fb.WriteBlock(id, img); err != nil {
				t.Fatal(err)
			}
		}
		if err := fb.CommitBatch(); !errors.Is(err, pager.ErrCrashed) {
			t.Fatalf("commit survived the cut: %v", err)
		}
		if !ctrl.Crashed() {
			t.Fatalf("controller never fired (crashAt=%d, writes=%d)", crashAt, ctrl.Writes())
		}
		fb.Close()
		return path
	}

	t.Run("committed-frame", func(t *testing.T) {
		// Write points in CommitBatch: frame, frame, commit record, then
		// the in-place applies. Crashing at point 4 leaves a fully
		// committed transaction in the WAL with nothing applied.
		path := setup(t, 4)
		flipByte(t, path+".wal", walHeader+9+50, 0x01) // payload of frame 1
		_, err := pager.OpenFile(path)
		if !errors.Is(err, pager.ErrCorrupt) {
			t.Fatalf("flipped committed frame: err = %v, want ErrCorrupt", err)
		}
	})

	t.Run("uncommitted-tail", func(t *testing.T) {
		// Crashing at point 3 cuts the commit record itself: the two
		// frames are a dead tail recovery must throw away, flipped or not.
		path := setup(t, 3)
		flipByte(t, path+".wal", walHeader+9+50, 0x01)
		fb, err := pager.OpenFile(path)
		if err != nil {
			t.Fatalf("flipped uncommitted tail rejected: %v", err)
		}
		defer fb.Close()
		if rec := fb.RecoveryInfo(); rec.Replayed || rec.DiscardedBytes == 0 {
			t.Fatalf("tail not discarded: %+v", rec)
		}
		buf := make([]byte, bs)
		if err := fb.ReadBlock(1, buf); err != nil {
			t.Fatalf("block 1 unreadable after discard: %v", err)
		}
		if buf[0] != 0 {
			t.Fatalf("discarded transaction leaked into block 1: %x", buf[0])
		}
	})
}

// TestConcurrentLookupsAfterRecovery is the -race walk: crash a durable
// store mid-workload, recover it, fsck it, then hammer the recovered
// store through a SyncStore from concurrent readers while a writer keeps
// inserting. Run with `go test -race` (the CI race job does).
func TestConcurrentLookupsAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.box")
	cfg := matrix()[0]
	baseLIDs, baseElems := buildBase(t, base, cfg)

	// Crash partway through the scripted workload.
	ctrl := pager.NewCrashController(25, true)
	fb, err := pager.OpenFileOpts(base, pager.FileOptions{NoSync: true, DiskControl: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.OpenExisting(fb, runtimeOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := rebuildWorld(st, baseLIDs, baseElems)
	for j := 0; j < scriptOps; j++ {
		if err := scriptOp(w, j); err != nil {
			break
		}
	}
	fb.Close()
	if !ctrl.Crashed() {
		t.Fatal("controller never fired; workload too small for crash point 25")
	}

	rep, err := fsck.Check(base, fsck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("recovered store unclean: %v", rep.Problems)
	}

	fb, err = pager.OpenFileOpts(base, pager.FileOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	plain, err := core.OpenExisting(fb, runtimeOpts())
	if err != nil {
		t.Fatal(err)
	}
	ss := core.NewSyncStore(plain)

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				for _, lid := range baseLIDs {
					if _, err := ss.Lookup(lid); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		at := baseElems[0]
		for i := 0; i < 15; i++ {
			if _, err := ss.InsertElementBefore(at.End); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent access over recovered store: %v", err)
	}
	if err := ss.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent churn: %v", err)
	}
}
