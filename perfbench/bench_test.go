package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun runs a workload on a small document with a fixed operation
// budget, so that counts repeat exactly.
func shortRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	cfg := config{workload: workload, seed: 7, trace: traced, workdir: t.TempDir(),
		elements: 20_000, ops: 3000, setups: 1}
	res, err := execute(cfg, workloads[workload])
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%s: %d of %d answers wrong: %v", workload, res.failed, res.attempted, res.wrong)
	}
	return res
}

func values(ms []metric) map[string]metric {
	out := map[string]metric{}
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

// TestEveryMetricEmitted runs each workload untraced and traced and checks
// that every metric BENCHMARK.json names is reported with its unit, and
// that the untraced result line parses with exactly those metrics.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res := shortRun(t, w.Name, traced)
				got, want := values(res.e2e), spec.EndToEnd
				if traced {
					got, want = values(res.layer), spec.PerLayer
				}
				if len(got) != len(want) {
					t.Errorf("traced=%v: %d metrics reported, BENCHMARK.json names %d", traced, len(got), len(want))
				}
				for _, m := range want {
					g, ok := got[m.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s not reported", traced, m.Name)
					} else if g.unit != m.Unit {
						t.Errorf("traced=%v: metric %s in %q, BENCHMARK.json says %q", traced, m.Name, g.unit, m.Unit)
					}
				}
				line, err := summary(res, traced)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct bool
					Metrics map[string]struct{ Unit string }
				}
				if err := json.Unmarshal([]byte(line), &parsed); err != nil || !parsed.Correct || len(parsed.Metrics) != len(want) {
					t.Errorf("traced=%v: bad result line %s (%v)", traced, line, err)
				}
			}
		})
	}
}

// TestCountsRepeat checks that the block I/O, space and relabel counts
// repeat exactly for a fixed seed on the single-goroutine workloads.
func TestCountsRepeat(t *testing.T) {
	for _, w := range []string{"xmark-read", "xmark-update"} {
		t.Run(w, func(t *testing.T) {
			a, b := values(shortRun(t, w, false).e2e), values(shortRun(t, w, false).e2e)
			for _, name := range []string{"block_ios_per_op", "bytes_per_elem"} {
				if a[name].value != b[name].value || a[name].value == 0 {
					t.Errorf("%s: %v then %v", name, a[name].value, b[name].value)
				}
			}
			la, lb := values(shortRun(t, w, true).layer), values(shortRun(t, w, true).layer)
			if name := "wbox.relabels_per_insert"; la[name].value != lb[name].value {
				t.Errorf("%s: %v then %v", name, la[name].value, lb[name].value)
			}
		})
	}
}

// TestCalmWindows checks the window filter: every window counts on a
// quiet machine, a stolen window is dropped, and a run stolen throughout
// keeps every window rather than none.
func TestCalmWindows(t *testing.T) {
	phaseOf := func(steals ...uint64) *phase {
		p := &phase{marks: []mark{{}}}
		var steal, ticks uint64
		for _, s := range steals {
			steal, ticks = steal+s, ticks+200
			p.marks = append(p.marks, mark{steal: steal, ticks: ticks})
		}
		return p
	}
	for _, c := range []struct {
		steals []uint64
		want   []int
	}{
		{[]uint64{0, 0, 0, 0}, []int{1, 2, 3, 4}},
		{[]uint64{0, 4, 30, 0}, []int{1, 2, 4}},
		{[]uint64{20, 30, 40}, []int{1, 2, 3}},
	} {
		if got := phaseOf(c.steals...).calm(); !slices.Equal(got, c.want) {
			t.Errorf("steal %v: kept windows %v, want %v", c.steals, got, c.want)
		}
	}
}

// TestCheckMix checks the served mix check at its edges: the reader offers
// a write before read 0 and after every readsPerWrite reads, and a timed
// loop may leave the last two undone.
func TestCheckMix(t *testing.T) {
	for _, c := range []struct {
		reads, writes int
		ok            bool
	}{
		{0, 0, true},
		{1, 1, true},
		{readsPerWrite, 1, true},
		{readsPerWrite + 1, 2, true},
		{10 * readsPerWrite, 10, true},
		{10 * readsPerWrite, 8, true},
		{10 * readsPerWrite, 7, false},
		{10 * readsPerWrite, 11, false},
	} {
		if err := checkMix(c.reads, c.writes); (err == nil) != c.ok {
			t.Errorf("checkMix(%d, %d) = %v, want ok=%v", c.reads, c.writes, err, c.ok)
		}
	}
}

// TestCalmLatencies checks that the samples kept are exactly those that
// ended in a kept window.
func TestCalmLatencies(t *testing.T) {
	p := &phase{marks: []mark{{at: 0}, {at: 100, ticks: 200}, {at: 200, steal: 30, ticks: 400}, {at: 300, steal: 30, ticks: 600}}}
	n := 3000
	want := 0
	for i := 0; i < n; i++ {
		end := int64(i * 300 / n)
		p.reads = append(p.reads, sample{end: end, dur: end})
		if end < 100 || end >= 200 {
			want++
		}
	}
	got := p.calmLatencies(p.reads)
	if len(got) != want {
		t.Fatalf("kept %d samples, want %d", len(got), want)
	}
	for _, d := range got {
		if d >= 100 && d < 200 {
			t.Fatalf("kept a sample that ended at %d, in the stolen window", d)
		}
	}
}
