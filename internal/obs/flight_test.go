package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// runOp drives one instrumented operation through the registry, optionally
// failing it.
func runOp(r *Registry, scheme string, op Op, err error) {
	c := r.Begin(scheme, op, false, 0, 0)
	r.End(c, 3, 1, err)
}

func TestFlightRecorderDumpsOnError(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	f := r.InstallFlightRecorder(dir)
	r.RegisterCollector(CollectorFunc(func() []GaugeValue {
		return []GaugeValue{G("boxes_tree_height", "h", 3, "scheme", "W-BOX")}
	}))

	for i := 0; i < 5; i++ {
		runOp(r, "W-BOX", OpInsert, nil)
	}
	if f.Dumps() != 0 {
		t.Fatalf("dumps after successes = %d, want 0", f.Dumps())
	}
	runOp(r, "W-BOX", OpInsert, errors.New("injected failure: budget exhausted"))

	if f.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1", f.Dumps())
	}
	if f.Err() != nil {
		t.Fatalf("recorder error: %v", f.Err())
	}
	path := f.LastDump()
	if path == "" {
		t.Fatal("no dump path recorded")
	}

	d, err := ReadCrashDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger.Scheme != "W-BOX" || d.Trigger.Op != "insert" {
		t.Errorf("trigger = %+v", d.Trigger)
	}
	if !strings.Contains(d.Trigger.Error, "injected failure") {
		t.Errorf("trigger error = %q", d.Trigger.Error)
	}
	// The ring holds starts and ends of the preceding ops plus the failure.
	if len(d.Events) < 6 {
		t.Errorf("only %d events retained", len(d.Events))
	}
	last := d.Events[len(d.Events)-1]
	if last.Error == "" {
		t.Errorf("newest ring event is not the failure: %+v", last)
	}
	// The dump carries the registered structural gauge alongside the
	// registry's own amortized-ledger gauges.
	found := false
	for _, g := range d.Gauges {
		if g.Name == "boxes_tree_height" {
			found = true
		}
	}
	if !found {
		t.Errorf("boxes_tree_height missing from gauges = %+v", d.Gauges)
	}
	if d.Metrics.Ops["insert"].Errors != 1 {
		t.Errorf("metrics snapshot errors = %d, want 1", d.Metrics.Ops["insert"].Errors)
	}
}

// TestFlightRecorderRespectsDumpLimit also checks that a registry keeps
// one recorder: a second install returns the first, with its dir and cap.
func TestFlightRecorderRespectsDumpLimit(t *testing.T) {
	dir, other := t.TempDir(), t.TempDir()
	r := NewRegistry()
	f := r.InstallFlightRecorder(dir)
	if again := r.InstallFlightRecorder(other); again != f {
		t.Fatal("second install replaced the registry's flight recorder")
	}

	for i := 0; i < flightDumps+3; i++ {
		runOp(r, "B-BOX", OpDelete, errors.New("persistent fault"))
	}
	if f.Dumps() != flightDumps {
		t.Fatalf("dumps = %d, want %d", f.Dumps(), flightDumps)
	}
	files, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != flightDumps {
		t.Fatalf("%d crash files on disk, want %d: %v", len(files), flightDumps, files)
	}
	if files, _ := filepath.Glob(filepath.Join(other, "*")); len(files) != 0 {
		t.Fatalf("second install's dir got files: %v", files)
	}
}

// TestFlightRecorderConcurrent feeds one recorder from several goroutines
// while each also installs: every install must return the same recorder,
// and the ring must hold the last events intact.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewRegistry()
	dir := t.TempDir()
	const workers, ops = 4, 100
	got := make([]*FlightRecorder, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = r.InstallFlightRecorder(dir)
			for i := 0; i < ops; i++ {
				runOp(r, "W-BOX", OpLookup, nil)
				got[w].Events()
			}
		}(w)
	}
	wg.Wait()
	for w, f := range got {
		if f != got[0] {
			t.Fatalf("worker %d got a different recorder", w)
		}
	}
	evs := got[0].Events()
	if len(evs) != flightRing {
		t.Fatalf("ring holds %d events, want %d", len(evs), flightRing)
	}
	for i, ev := range evs {
		if ev.Scheme != "W-BOX" || ev.Op != "lookup" {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
}

func TestReadCrashDumpRejectsBadVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.json")
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCrashDump(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v, want version error", err)
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("naive-4/k=2"); got != "naive-4_k_2" {
		t.Errorf("sanitize = %q", got)
	}
	if got := sanitize(""); got != "unknown" {
		t.Errorf("sanitize empty = %q", got)
	}
}
