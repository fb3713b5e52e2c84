package crashmatrix

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// removeStore deletes a store file and its sidecars.
func removeStore(path string) {
	for _, suffix := range []string{"", ".crc", ".wal"} {
		os.Remove(path + suffix)
	}
}

// TestDoubleCrashMatrix cuts power a second time during recovery itself:
// for every raw write point of the scripted workload, crash there, then
// sweep every raw write point of the WAL redo that the reopen performs —
// full cuts and torn half-writes — and require that a third, unharassed
// reopen still lands fsck-clean on an exact operation boundary. Redo is
// idempotent physical replay, so no prefix of it, torn or not, may change
// which boundaries are admissible.
func TestDoubleCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("double-crash sweep is not short")
	}
	for _, cfg := range matrix() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			base := filepath.Join(dir, "base.box")
			baseLIDs, baseElems := buildBase(t, base, cfg)

			golden := filepath.Join(dir, "golden.box")
			copyStore(t, base, golden)
			snapshots, writePoints := goldenRun(t, golden, cfg, baseLIDs, baseElems)
			if writePoints == 0 {
				t.Fatal("script performed no writes; sweep is vacuous")
			}

			redoCuts := 0
			for at := 1; at <= writePoints; at++ {
				crash := filepath.Join(dir, fmt.Sprintf("crash-%d.box", at))
				copyStore(t, base, crash)
				opsDone, crashed := runUntilCrash(t, crash, cfg, at, baseLIDs, baseElems)
				if !crashed {
					removeStore(crash)
					continue
				}

				// Probe how many raw writes the redo of this cut performs,
				// with a count-only controller on a scratch copy.
				probe := filepath.Join(dir, "probe.box")
				copyStore(t, crash, probe)
				dc := pager.NewDiskController()
				fb, err := pager.OpenFileOpts(probe, pager.FileOptions{NoSync: true, DiskControl: dc})
				if err != nil {
					t.Fatalf("at=%d: probe reopen: %v", at, err)
				}
				redoWrites := dc.Writes()
				fb.Close()
				removeStore(probe)

				for q := 1; q <= redoWrites; q++ {
					for _, torn := range []bool{false, true} {
						tag := fmt.Sprintf("%s/at=%d/redo=%d/torn=%v", cfg.name, at, q, torn)
						dbl := filepath.Join(dir, "double.box")
						copyStore(t, crash, dbl)

						kind := pager.DiskCrash
						if torn {
							kind = pager.DiskTornCrash
						}
						dc2 := pager.NewDiskController()
						dc2.PlanWrite(q, kind)
						fb2, err := pager.OpenFileOpts(dbl, pager.FileOptions{NoSync: true, DiskControl: dc2})
						if err == nil {
							// The cut landed after redo finished its writes
							// (e.g. in the WAL truncate the open tolerates);
							// the file is simply recovered.
							fb2.Close()
						} else if !errors.Is(err, pager.ErrCrashed) {
							t.Fatalf("%s: second reopen failed with a non-crash error: %v", tag, err)
						}
						redoCuts++

						// Third open runs undisturbed and must recover to the
						// same admissible boundary as a single crash would.
						checkRecovered(t, dbl, cfg, snapshots, opsDone, tag)
						removeStore(dbl)
					}
				}
				removeStore(crash)
			}
			if redoCuts == 0 {
				t.Fatal("no redo write point was ever cut; double-crash sweep is vacuous")
			}
		})
	}
}

// runUntilCrash replays the script over a copy of the base store with a
// power cut planned at raw write point `at`, returning how many ops fully
// completed and whether the cut fired.
func runUntilCrash(t *testing.T, path string, cfg schemeConfig, at int, baseLIDs []order.LID, baseElems []order.ElemLIDs) (opsDone int, crashed bool) {
	t.Helper()
	ctrl := pager.NewCrashController(at, false)
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true, DiskControl: ctrl})
	if err != nil {
		t.Fatalf("at=%d: open: %v", at, err)
	}
	st, err := core.OpenExisting(fb, runtimeOpts())
	if err != nil {
		t.Fatalf("at=%d: OpenExisting: %v", at, err)
	}
	w := rebuildWorld(st, baseLIDs, baseElems)
	for j := 0; j < scriptOps; j++ {
		if err := scriptOp(w, j); err != nil {
			if !errors.Is(err, pager.ErrCrashed) {
				t.Fatalf("at=%d: op %d failed with a non-crash error: %v", at, j, err)
			}
			break
		}
		opsDone++
	}
	fb.Close()
	return opsDone, ctrl.Crashed()
}
