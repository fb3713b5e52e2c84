package fsck

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
)

const testBlockSize = 512

// buildStore creates a durable file-backed store, applies a few dozen
// updates, and closes it cleanly.
func buildStore(t *testing.T, path string, opts core.Options) []order.ElemLIDs {
	t.Helper()
	fb, err := pager.CreateFile(path, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	opts.BlockSize = testBlockSize
	opts.Backend = fb
	opts.Durable = true
	st, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.InsertFirstElement()
	if err != nil {
		t.Fatal(err)
	}
	elems := []order.ElemLIDs{e}
	for i := 0; i < 40; i++ {
		at := elems[i%len(elems)]
		ne, err := st.InsertElementBefore(at.End)
		if err != nil {
			t.Fatal(err)
		}
		elems = append(elems, ne)
	}
	if err := st.DeleteElement(elems[3]); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	return elems
}

func TestCheckCleanStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"wbox", core.Options{Scheme: core.SchemeWBox}},
		{"wbox-o", core.Options{Scheme: core.SchemeWBoxO}},
		{"bbox", core.Options{Scheme: core.SchemeBBox}},
		{"naive", core.Options{Scheme: core.SchemeNaive, NaiveK: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.box")
			buildStore(t, path, tc.opts)
			rep, err := Check(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("clean store reported problems: %v", rep.Problems)
			}
			if len(rep.Orphans) != 0 {
				t.Fatalf("clean store has orphans: %v", rep.Orphans)
			}
			if rep.Labels == 0 {
				t.Fatal("no labels restored")
			}
		})
	}
}

func TestCheckDetectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.box")
	buildStore(t, path, core.Options{Scheme: core.SchemeWBox})

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	off := int64(2*testBlockSize + 100)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x08
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rep, err := Check(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("bit flip not reported")
	}
	found := false
	for _, p := range rep.Problems {
		if p.Block == 2 && p.Severity == SevError {
			found = true
		}
	}
	if !found {
		t.Fatalf("no error names block 2: %v", rep.Problems)
	}
}

func TestCheckFindsAndRepairsOrphans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.box")
	buildStore(t, path, core.Options{Scheme: core.SchemeBBox})

	// Leak a block: allocate and write it outside any structure.
	fb, err := pager.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fb.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.WriteBlock(id, make([]byte, testBlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Check(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("orphan must be a warning, got: %v", rep.Problems)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != id {
		t.Fatalf("orphans = %v, want [%d]", rep.Orphans, id)
	}

	rep, err = Check(path, Options{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repaired != 1 {
		t.Fatalf("repaired = %d, want 1", rep.Repaired)
	}
	rep, err = Check(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("orphans after repair: %v", rep.Orphans)
	}
	if !rep.Clean() {
		t.Fatalf("store unclean after repair: %v", rep.Problems)
	}
}

func TestCheckNoSavedStructure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.box")
	fb, err := pager.CreateFile(path, testBlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("bare store reported errors: %v", rep.Problems)
	}
	if rep.Scheme != "" {
		t.Fatalf("scheme = %q for a bare store", rep.Scheme)
	}
}

func TestCheckUnopenableFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Check(path, Options{}); err == nil {
		t.Fatal("junk file accepted")
	}
}

func TestCheckWritesCrashDumpOnProblems(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.box")
	buildStore(t, path, core.Options{Scheme: core.SchemeWBox})

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(2*testBlockSize+5)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	crashDir := filepath.Join(t.TempDir(), "crash")
	rep, err := Check(path, Options{CrashDir: crashDir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corruption not reported")
	}
	ents, err := os.ReadDir(crashDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no crash dump written (err=%v)", err)
	}
}

func TestCheckSurvivesCrashMidRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.box")
	buildStore(t, path, core.Options{Scheme: core.SchemeWBox})

	// Leak two blocks so repair frees more than one.
	fb, err := pager.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		id, err := fb.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := fb.WriteBlock(id, make([]byte, testBlockSize)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// A repair interrupted at any write point must leave the store clean
	// (repair is one atomic transaction: fully applied or not at all).
	for at := 1; ; at++ {
		dir := t.TempDir()
		crashPath := filepath.Join(dir, "crash.box")
		copyStore(t, path, crashPath)
		ctrl := pager.NewCrashController(at, true)
		_, err := checkWithController(crashPath, ctrl)
		if !ctrl.Crashed() {
			break // repair completed before the crash point
		}
		_ = err
		rep, err := Check(crashPath, Options{})
		if err != nil {
			t.Fatalf("crash@%d: %v", at, err)
		}
		if !rep.Clean() {
			t.Fatalf("crash@%d left unclean store: %v", at, rep.Problems)
		}
		if n := len(rep.Orphans); n != 0 && n != 2 {
			t.Fatalf("crash@%d: %d orphans, want 0 or 2 (all-or-nothing)", at, n)
		}
	}
}

// checkWithController runs the repair path with crash injection; it mirrors
// Check but opens the file through a controller.
func checkWithController(path string, ctrl *pager.DiskController) (*Report, error) {
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{DiskControl: ctrl})
	if err != nil {
		return nil, err
	}
	defer fb.Close()
	probe := pager.NewStore(fb)
	free, err := fb.FreeBlocks()
	if err != nil {
		return nil, err
	}
	inFree := make(map[pager.BlockID]bool)
	for _, id := range free {
		inFree[id] = true
	}
	st, err := core.OpenExisting(fb, core.Options{})
	if err != nil {
		return nil, err
	}
	reachable := make(map[pager.BlockID]bool)
	if err := st.Labeler().(blockWalker).WalkBlocks(func(id pager.BlockID) error {
		reachable[id] = true
		return nil
	}); err != nil {
		return nil, err
	}
	if head, err := fb.MetaRoot(); err == nil && head != pager.NilBlock {
		ids, err := probe.BlobBlocks(head)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			reachable[id] = true
		}
	}
	probe.BeginOp()
	var ferr error
	for id := pager.BlockID(1); id < fb.Bound(); id++ {
		if !reachable[id] && !inFree[id] {
			if ferr = probe.Free(id); ferr != nil {
				break
			}
		}
	}
	if err := probe.EndOp(); ferr == nil {
		ferr = err
	}
	return nil, ferr
}

func copyStore(t *testing.T, from, to string) {
	t.Helper()
	for _, suffix := range []string{"", ".crc", ".wal"} {
		data, err := os.ReadFile(from + suffix)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			t.Fatal(err)
		}
		if err := os.WriteFile(to+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
