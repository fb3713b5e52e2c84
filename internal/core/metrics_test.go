package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"boxes/internal/faults"
	"boxes/internal/obs"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// drive runs a mixed workload through every instrumented Store entry
// point: bulk load, lookups, element inserts/deletes, subtree
// insert/delete, and an invariant check.
func drive(t *testing.T, st *Store) {
	t.Helper()
	doc, err := st.Load(xmlgen.TwoLevel(200))
	if err != nil {
		t.Fatal(err)
	}
	anchor := doc.Elems[1]
	for i := 0; i < 60; i++ {
		e, err := st.InsertElementBefore(anchor.Start)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Lookup(e.Start); err != nil {
			t.Fatal(err)
		}
		if _, err := st.LookupSpan(e); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Compare(e.Start, anchor.Start); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := st.DeleteElement(doc.Elems[100+i]); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := st.InsertSubtreeBefore(doc.Elems[2].Start, xmlgen.TwoLevel(50))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DeleteSubtree(sub[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestOpSeriesMatchIOStats asserts the tentpole accounting identity: every
// block I/O flows through an instrumented core operation, so the summed
// per-op read/write histogram sums must equal the pager's own counters —
// on all four schemes.
func TestOpSeriesMatchIOStats(t *testing.T) {
	for _, opt := range []Options{
		{Scheme: SchemeWBox, BlockSize: 512},
		{Scheme: SchemeWBoxO, BlockSize: 512},
		{Scheme: SchemeBBox, BlockSize: 512},
		{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 8},
	} {
		t.Run(opt.Scheme.String(), func(t *testing.T) {
			st, err := Open(opt)
			if err != nil {
				t.Fatal(err)
			}
			drive(t, st)
			snap := st.Metrics()
			var reads, writes, ops uint64
			for _, s := range snap.Ops {
				reads += s.Reads.Sum
				writes += s.Writes.Sum
				ops += s.Count
			}
			io := st.Stats()
			if reads != io.Reads || writes != io.Writes {
				t.Errorf("op-series I/O (r=%d, w=%d) != pager stats %v", reads, writes, io)
			}
			if ops == 0 {
				t.Error("no operations recorded")
			}
			for _, name := range []string{"bulk_load", "lookup", "insert", "delete", "subtree_insert", "subtree_delete", "check"} {
				if snap.Ops[name].Count == 0 {
					t.Errorf("op %q recorded no invocations", name)
				}
			}
			if snap.Schemes[0] != opt.Scheme.String() {
				t.Errorf("schemes = %v", snap.Schemes)
			}
		})
	}
}

// TestStructuralCounters asserts each scheme's structural events reach its
// dedicated counters under a workload known to trigger them.
func TestStructuralCounters(t *testing.T) {
	t.Run("wbox-splits", func(t *testing.T) {
		st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(100))
		if err != nil {
			t.Fatal(err)
		}
		// Concentrated insertion before one anchor forces leaf splits.
		for i := 0; i < 400; i++ {
			if _, err := st.InsertElementBefore(doc.Elems[1].Start); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Metrics()
		if snap.Counters["wbox_splits_total"] == 0 {
			t.Error("wbox_splits_total = 0 after concentrated insert workload")
		}
		if snap.Counters["lidf_allocs_total"] == 0 {
			t.Error("lidf_allocs_total = 0")
		}
	})

	t.Run("bbox-merges", func(t *testing.T) {
		st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(400))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := st.DeleteElement(doc.Elems[i+1]); err != nil {
				t.Fatal(err)
			}
		}
		snap := st.Metrics()
		if snap.Counters["bbox_merges_total"] == 0 && snap.Counters["bbox_borrows_total"] == 0 {
			t.Error("no B-BOX underflow repairs recorded after mass deletion")
		}
		if snap.Counters["lidf_frees_total"] == 0 {
			t.Error("lidf_frees_total = 0")
		}
	})

	t.Run("naive-relabels", func(t *testing.T) {
		st, err := Open(Options{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 1})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := st.Load(xmlgen.TwoLevel(50))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := st.InsertElementBefore(doc.Elems[1].Start); err != nil {
				t.Fatal(err)
			}
		}
		if st.Metrics().Counters["naive_relabels_total"] == 0 {
			t.Error("naive_relabels_total = 0 with k=1 under repeated insertion")
		}
	})
}

// TestReflogCounters asserts the Section 6 cache outcomes land in the
// shared registry.
func TestReflogCounters(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Caching: CachingLogged, LogK: 32})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(100))
	if err != nil {
		t.Fatal(err)
	}
	cache := st.Cache()
	ref, err := cache.NewRef(doc.Elems[5].Start)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh hit: nothing modified since the ref was built.
	if _, _, err := cache.Lookup(&ref); err != nil {
		t.Fatal(err)
	}
	// A logged insert elsewhere: next lookup repairs by replay.
	if _, err := st.InsertElementBefore(doc.Elems[50].Start); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Lookup(&ref); err != nil {
		t.Fatal(err)
	}
	snap := st.Metrics()
	if snap.Counters["reflog_cache_hits_total"] == 0 {
		t.Error("reflog_cache_hits_total = 0")
	}
	if snap.Counters["reflog_cache_repairs_total"]+snap.Counters["reflog_cache_misses_total"] == 0 {
		t.Error("neither repair nor miss recorded after a logged modification")
	}
}

// TestFlightRecorderThroughOptions asserts the recorder Options.CrashDir
// installs sees start/end pairs in order with the scheme attached.
func TestFlightRecorderThroughOptions(t *testing.T) {
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, CrashDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(10)); err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	evs := st.FlightRecorder().Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4 (2 ops x start+end)", len(evs))
	}
	if !evs[0].Start || evs[1].Start || !evs[2].Start || evs[3].Start {
		t.Fatalf("start/end interleaving wrong: %+v", evs)
	}
	if evs[1].Op != "bulk_load" || evs[3].Op != "check" {
		t.Fatalf("ops = %v, %v", evs[1].Op, evs[3].Op)
	}
	if evs[1].Scheme != "B-BOX" {
		t.Fatalf("scheme = %q", evs[1].Scheme)
	}
	if evs[1].Writes == 0 {
		t.Error("bulk load charged no writes")
	}
}

// TestReopenKeepsOneFlightRecorder reopens stores with CrashDir on one
// shared registry, as the simulator does after every restart: the
// registry keeps one recorder, so one failing op writes one crash file.
func TestReopenKeepsOneFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sched := faults.NewSchedule(1)
	var first *obs.FlightRecorder
	var st *Store
	for i := 0; i < 4; i++ {
		var err error
		st, err = Open(Options{Scheme: SchemeWBox, BlockSize: 512, Metrics: reg, CrashDir: dir,
			Backend: pager.NewFaultBackend(pager.NewMemBackend(512), sched)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = st.FlightRecorder()
		} else if st.FlightRecorder() != first {
			t.Fatalf("open %d installed a second flight recorder", i+1)
		}
	}
	sched.SetBudget(sched.Ops())
	if _, err := st.InsertFirstElement(); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("insert err = %v, want injected", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "crash-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("%d crash files, want 1: %v", len(files), files)
	}
	if evs := first.Events(); len(evs) != 2 {
		t.Fatalf("ring holds %d events, want 2 (one start, one end)", len(evs))
	}
}

// TestSharedRegistryAcrossStores asserts Options.Metrics aggregates
// several stores into one registry, as the benchmark harness does.
func TestSharedRegistryAcrossStores(t *testing.T) {
	reg := obs.NewRegistry()
	for _, opt := range []Options{
		{Scheme: SchemeWBox, BlockSize: 512, Metrics: reg},
		{Scheme: SchemeBBox, BlockSize: 512, Metrics: reg},
	} {
		st, err := Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load(xmlgen.TwoLevel(20)); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if len(snap.Schemes) != 2 {
		t.Fatalf("schemes = %v", snap.Schemes)
	}
	if snap.Ops["bulk_load"].Count != 2 {
		t.Fatalf("bulk_load count = %d, want 2", snap.Ops["bulk_load"].Count)
	}
	out := reg.String()
	if !strings.Contains(out, `boxes_store_info{scheme="W-BOX"} 1`) ||
		!strings.Contains(out, `boxes_store_info{scheme="B-BOX"} 1`) {
		t.Error("exposition missing store info for a scheme")
	}
}

// TestMetricsSurviveOpenExisting asserts the runtime Metrics option is
// honored when resuming a persisted store.
func TestMetricsSurviveOpenExisting(t *testing.T) {
	be := pager.NewMemBackend(512)
	st, err := Open(Options{Scheme: SchemeWBox, BlockSize: 512, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(xmlgen.TwoLevel(20)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st2, err := OpenExisting(be, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Lookup(1); err != nil {
		t.Fatal(err)
	}
	if reg.OpCount(obs.OpLookup) != 1 {
		t.Fatalf("lookup count = %d, want 1", reg.OpCount(obs.OpLookup))
	}
}
