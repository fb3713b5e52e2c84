package core

import (
	"errors"
	"testing"

	"boxes/internal/faults"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// TestInjectedFailuresSurfaceCleanly drives every scheme against backends
// that fail after a progressively later operation, asserting that every
// failure is returned as an error wrapping pager.ErrInjected — never a
// panic, never a silent success.
func TestInjectedFailuresSurfaceCleanly(t *testing.T) {
	schemes := []Options{
		{Scheme: SchemeWBox, BlockSize: 512},
		{Scheme: SchemeWBoxO, BlockSize: 512},
		{Scheme: SchemeBBox, BlockSize: 512, Ordinal: true},
		{Scheme: SchemeNaive, BlockSize: 512, NaiveK: 4},
	}
	tree := xmlgen.TwoLevel(200)
	for _, opt := range schemes {
		t.Run(opt.Scheme.String(), func(t *testing.T) {
			// First measure how many backend ops a full workload needs.
			probe := faults.NewSchedule(1)
			o := opt
			o.Backend = pager.NewFaultBackend(pager.NewMemBackend(opt.BlockSize), probe)
			st, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := st.Load(tree)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if _, err := st.InsertElementBefore(doc.Elems[50].Start); err != nil {
					t.Fatal(err)
				}
			}
			total := probe.Ops()

			// Now re-run with budgets cutting the workload off at various
			// points, including mid-operation.
			for _, budget := range []int{total / 7, total / 3, total / 2, total - 3} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("budget %d: panic: %v", budget, r)
						}
					}()
					sched := faults.NewSchedule(1)
					sched.SetBudget(budget)
					o := opt
					o.Backend = pager.NewFaultBackend(pager.NewMemBackend(opt.BlockSize), sched)
					st, err := Open(o)
					if err != nil {
						return // even Open may fail; fine
					}
					var sawErr error
					doc, err := st.Load(tree)
					if err != nil {
						sawErr = err
					} else {
						for i := 0; i < 30 && sawErr == nil; i++ {
							if _, err := st.InsertElementBefore(doc.Elems[50].Start); err != nil {
								sawErr = err
							}
						}
					}
					if sawErr == nil {
						t.Fatalf("budget %d: workload succeeded despite injection (needs %d ops)", budget, total)
					}
					if !errors.Is(sawErr, pager.ErrInjected) {
						t.Fatalf("budget %d: error does not wrap ErrInjected: %v", budget, sawErr)
					}
				}()
			}
		})
	}
}

// TestLookupAfterFailedUpdate checks that a failed update leaves lookups
// of untouched labels answerable once the backend recovers (the in-memory
// bookkeeping is not poisoned by the error path).
func TestLookupAfterFailedUpdate(t *testing.T) {
	sched := faults.NewSchedule(1)
	st, err := Open(Options{Scheme: SchemeBBox, BlockSize: 512, Backend: pager.NewFaultBackend(pager.NewMemBackend(512), sched)})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := st.Load(xmlgen.TwoLevel(300))
	if err != nil {
		t.Fatal(err)
	}
	// Fail the very next backend operation, then recover.
	sched.SetBudget(sched.Ops())
	if _, err := st.InsertElementBefore(doc.Elems[50].Start); !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	sched.SetBudget(-1)
	// A label far away from the failed update must still resolve.
	if _, err := st.Lookup(doc.Elems[250].Start); err != nil {
		t.Fatalf("lookup after recovery: %v", err)
	}
}
