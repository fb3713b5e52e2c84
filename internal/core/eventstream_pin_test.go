package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"boxes/internal/faults"
	"boxes/internal/obs"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// TestCrashDumpContentPinned pins what a crash dump says about the failing
// operation and the ring of recent events before it: a W-BOX store on a
// FaultBackend loads a document, runs five inserts, then one insert whose
// first backend call fails. Timestamps and durations vary per run and are
// left out; everything else of each event is compared.
func TestCrashDumpContentPinned(t *testing.T) {
	dir := t.TempDir()
	sched := faults.NewSchedule(1)
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512,
		Backend: pager.NewFaultBackend(pager.NewMemBackend(512), sched), CrashDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(400))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.InsertElementBefore(doc.Elems[50].Start); err != nil {
			t.Fatal(err)
		}
	}
	sched.SetBudget(sched.Ops())
	if _, err := st.InsertElementBefore(doc.Elems[50].Start); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("crash files = %v (%v), want exactly 1", files, err)
	}
	d, err := obs.ReadCrashDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	render := func(e obs.EventRecord) string {
		return fmt.Sprintf("start=%v %s %s r=%d w=%d err=%q class=%q",
			e.Start, e.Scheme, e.Op, e.Reads, e.Writes, e.Error, e.ErrorClass)
	}
	lines := []string{"trigger: " + render(d.Trigger)}
	for _, e := range d.Events {
		lines = append(lines, render(e))
	}
	got := strings.Join(lines, "\n")
	const want = `trigger: start=false W-BOX insert r=0 w=0 err="pager: injected I/O failure (read, permanent)" class="permanent"
start=true W-BOX bulk_load r=0 w=0 err="" class=""
start=false W-BOX bulk_load r=0 w=34 err="" class=""
start=true W-BOX insert r=0 w=0 err="" class=""
start=false W-BOX insert r=5 w=6 err="" class=""
start=true W-BOX insert r=0 w=0 err="" class=""
start=false W-BOX insert r=5 w=4 err="" class=""
start=true W-BOX insert r=0 w=0 err="" class=""
start=false W-BOX insert r=5 w=4 err="" class=""
start=true W-BOX insert r=0 w=0 err="" class=""
start=false W-BOX insert r=9 w=9 err="" class=""
start=true W-BOX insert r=0 w=0 err="" class=""
start=false W-BOX insert r=5 w=4 err="" class=""
start=true W-BOX insert r=0 w=0 err="" class=""
start=false W-BOX insert r=0 w=0 err="pager: injected I/O failure (read, permanent)" class="permanent"`
	if got != want {
		t.Errorf("crash dump content changed; got:\n%s", got)
	}
}

// TestTraceShapePinned pins the shape of the span tree a single-goroutine
// durable store records: the multiset of (span, lane, parent span) over a
// load, inserts, lookups and one batch. Reader lanes carry a goroutine ID
// and are folded to "reader-*".
func TestTraceShapePinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shape.boxes")
	fb, err := pager.CreateFileOpts(path, pager.FileOptions{BlockSize: 512, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Backend: fb, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr := st.MetricsRegistry().Tracer()
	tr.Start(0)
	doc, err := st.Load(xmlgen.TwoLevel(40))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := st.InsertElementBefore(doc.Elems[i].End); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Lookup(doc.Elems[i].Start); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.ApplyBatch([]Op{
		{Kind: OpInsertBefore, LID: doc.Elems[5].End},
		{Kind: OpInsertBefore, LID: doc.Elems[6].End},
	}); err != nil {
		t.Fatal(err)
	}
	tr.Stop()

	spans := tr.Spans()
	lanes := tr.Lanes()
	names := map[uint64]string{}
	for _, sp := range spans {
		names[sp.ID] = sp.Name
	}
	counts := map[string]int{}
	for _, sp := range spans {
		lane := lanes[sp.Lane]
		if strings.HasPrefix(lane, "reader-") {
			lane = "reader-*"
		}
		parent := "-"
		if sp.Parent != 0 {
			parent = names[sp.Parent]
		}
		counts[fmt.Sprintf("%s@%s<%s", sp.Name, lane, parent)]++
	}
	var lines []string
	for k, n := range counts {
		lines = append(lines, fmt.Sprintf("%s x%d", k, n))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n")
	const want = `apply@writer<batch x1
apply@writer<bulk_load x1
apply@writer<insert x4
batch@writer<- x1
block_read@writer<batch x4
block_read@writer<insert x16
block_read@writer<lookup x12
block_write@writer<batch x3
block_write@writer<bulk_load x6
block_write@writer<insert x12
bulk_load@writer<- x1
frame_write@writer<batch x1
frame_write@writer<bulk_load x1
frame_write@writer<insert x4
fsync@writer<batch x1
fsync@writer<bulk_load x1
fsync@writer<insert x4
insert-before@writer<batch x2
insert@writer<- x4
lookup@writer<- x4
meta_persist@writer<bulk_load x1
meta_persist@writer<insert x4
wal_commit@writer<batch x1
wal_commit@writer<bulk_load x1
wal_commit@writer<insert x4`
	if got != want {
		t.Errorf("trace shape changed; got:\n%s", got)
	}
}
