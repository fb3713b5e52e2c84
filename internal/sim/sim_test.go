package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"boxes/internal/difftest"
	"boxes/internal/obs"
	"boxes/internal/wbox"
)

// smokeSeeds are the fixed seeds every scheme must survive in CI (the
// `make sim-smoke` budget). Keep in sync with cmd/boxsim -smoke.
var smokeSeeds = []int64{1, 2, 3}

// TestSimSmoke is the required CI gate: every scheme, the balanced and
// the delete-heavy mixes, fixed seeds, faults on. Each history's
// ExecDigest must also match testdata/smoke_digests.txt ("scheme mix seed
// digest" lines), which pins the fault-injection and recovery behaviour
// byte for byte. Re-pin a digest only for a deliberate behaviour change,
// and record why.
func TestSimSmoke(t *testing.T) {
	pinned := readSmokeDigests(t)
	for _, dcfg := range difftest.Configs() {
		for _, mix := range []string{MixMixed, MixChurn} {
			for _, seed := range smokeSeeds {
				cfg := Config{Seed: seed, Scheme: dcfg.Name, Mix: mix, Ops: 150, FaultRate: 0.08}
				rep, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", dcfg.Name, mix, seed, err)
				}
				if rep.Failure != nil {
					t.Errorf("%s/%s seed %d: %v", dcfg.Name, mix, seed, rep.Failure)
				}
				key := fmt.Sprintf("%s %s %d", dcfg.Name, mix, seed)
				if want := pinned[key]; rep.ExecDigest != want {
					t.Errorf("%s: exec digest %s, pinned %q", key, rep.ExecDigest, want)
				}
			}
		}
	}
}

// readSmokeDigests loads the pinned smoke digests, keyed "scheme mix seed".
func readSmokeDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile("testdata/smoke_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		pinned[line[:i]] = line[i+1:]
	}
	return pinned
}

// TestSimAdversarialMixes runs the lower-bound-style insertion patterns:
// hammering the document front and bisecting the newest gap, the
// sequences that force worst-case relabeling.
func TestSimAdversarialMixes(t *testing.T) {
	for _, scheme := range []string{"wbox", "wbox-o", "bbox", "bbox-o", "naive-8"} {
		for _, mix := range []string{MixAdvFront, MixAdvBisect} {
			cfg := Config{Seed: 7, Scheme: scheme, Mix: mix, Ops: 200, FaultRate: 0.05}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, mix, err)
			}
			if rep.Failure != nil {
				t.Errorf("%s/%s: %v", scheme, mix, rep.Failure)
			}
		}
	}
}

// TestSimZooMixes runs the workload-zoo trace mixes — zipfian-skewed
// positions and steady-state tombstone churn — under composed fault
// schedules on every scheme.
func TestSimZooMixes(t *testing.T) {
	for _, scheme := range []string{"wbox", "wbox-o", "bbox", "bbox-o", "naive-8"} {
		for _, mix := range []string{MixZipf, MixSteady} {
			cfg := Config{Seed: 9, Scheme: scheme, Mix: mix, Ops: 200, FaultRate: 0.06}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, mix, err)
			}
			if rep.Failure != nil {
				t.Errorf("%s/%s: %v", scheme, mix, rep.Failure)
			}
		}
	}
}

// TestSimZipfTraceIsSkewed checks the zipf mix's generation-time shape:
// the positional operands concentrate on low ranks (a hot region) instead
// of the uniform spread of the other mixes, and the skew survives in the
// events themselves so minimized subsequences keep it.
func TestSimZipfTraceIsSkewed(t *testing.T) {
	trace, err := GenTrace(Config{Seed: 5, Mix: MixZipf, Ops: 400})
	if err != nil {
		t.Fatal(err)
	}
	ops, low := 0, 0
	for _, ev := range trace {
		if ev.Kind != EvOp {
			continue
		}
		ops++
		if ev.A < 8 {
			low++
		}
	}
	if ops == 0 {
		t.Fatal("no ops generated")
	}
	// Uniform Uint32 operands would land below 8 with probability ~2e-9;
	// zipf at skew 1.2 concentrates nearly half the mass there (measured
	// 49% at this seed; a third is comfortably beyond chance).
	if low*3 < ops {
		t.Fatalf("zipf mix not skewed: %d/%d operands in the hot region", low, ops)
	}
}

// TestSimSteadyTraceBalances checks the steady mix emits inserts and
// element deletes in near-equal proportion with no subtree deletes, the
// shape that holds a document at fixed size while accumulating
// tombstones.
func TestSimSteadyTraceBalances(t *testing.T) {
	trace, err := GenTrace(Config{Seed: 5, Mix: MixSteady, Ops: 600})
	if err != nil {
		t.Fatal(err)
	}
	var ins, del int
	for _, ev := range trace {
		if ev.Kind != EvOp {
			continue
		}
		switch ev.Op {
		case KInsertBefore, KInsertFirst:
			ins++
		case KDeleteElement:
			del++
		case KDeleteSubtree, KBatch:
			t.Fatalf("steady mix emitted %s", ev.Op)
		}
	}
	if ins == 0 || del == 0 {
		t.Fatalf("steady mix degenerate: %d inserts, %d deletes", ins, del)
	}
	ratio := float64(ins) / float64(del)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("steady mix unbalanced: %d inserts vs %d deletes", ins, del)
	}
}

// TestSimReplayIsByteIdentical proves the determinism contract: two runs
// of the same seed produce the same trace digest AND the same execution
// digest — every returned LID, every restart, every boundary resolution
// identical.
func TestSimReplayIsByteIdentical(t *testing.T) {
	cfg := Config{Seed: 42, Scheme: "wbox", Mix: MixMixed, Ops: 250, FaultRate: 0.12}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceDigest != b.TraceDigest {
		t.Fatalf("trace digests differ: %s vs %s", a.TraceDigest, b.TraceDigest)
	}
	if a.ExecDigest != b.ExecDigest {
		t.Fatalf("execution digests differ: %s vs %s", a.ExecDigest, b.ExecDigest)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	// An explicit RunTrace of the generated trace is the same run.
	trace, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunTrace(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	if c.ExecDigest != a.ExecDigest {
		t.Fatalf("RunTrace(GenTrace) digest %s differs from Run digest %s", c.ExecDigest, a.ExecDigest)
	}
	if a.Stats.Restarts == 0 || a.Stats.Ops == 0 {
		t.Fatalf("replay test exercised nothing: %+v", a.Stats)
	}
}

// TestSimFsyncFailureRecovers checks the fsyncgate contract end to end: a
// history peppered with failed fsyncs must poison-and-recover every time,
// end oracle-equal, and keep committing ops after each recovery.
func TestSimFsyncFailureRecovers(t *testing.T) {
	var trace []Event
	for i := 0; i < 60; i++ {
		if i%10 == 4 {
			trace = append(trace, Event{Kind: EvFault, Fault: FSyncFail, Delay: uint32(i % 6)})
		}
		trace = append(trace, Event{Kind: EvOp, Op: KInsertBefore, A: uint32(i * 13), B: uint32(i)})
	}
	for _, scheme := range []string{"wbox", "bbox"} {
		cfg := Config{Seed: 1, Scheme: scheme, Ops: len(trace)}
		rep, err := RunTrace(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failure != nil {
			t.Fatalf("%s: %v", scheme, rep.Failure)
		}
		if rep.Stats.Restarts == 0 {
			t.Fatalf("%s: no restart despite injected fsync failures: %+v", scheme, rep.Stats)
		}
		if rep.Stats.Ops < 50 {
			t.Fatalf("%s: store did not keep committing after fsync-failure recoveries: %+v", scheme, rep.Stats)
		}
	}
}

// TestSimNoSpaceRecovers checks the ENOSPC contract end to end: full-disk
// write failures abort the op cleanly to the pre-op state (no read-only
// latch), the history continues, and the final state is oracle-equal.
func TestSimNoSpaceRecovers(t *testing.T) {
	var trace []Event
	for i := 0; i < 60; i++ {
		if i%7 == 3 {
			trace = append(trace, Event{Kind: EvFault, Fault: FNoSpace, Delay: uint32(i % 9)})
		}
		trace = append(trace, Event{Kind: EvOp, Op: KInsertBefore, A: uint32(i * 29), B: uint32(i >> 1)})
	}
	for _, scheme := range []string{"wbox", "naive-8"} {
		cfg := Config{Seed: 1, Scheme: scheme, Ops: len(trace)}
		rep, err := RunTrace(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failure != nil {
			t.Fatalf("%s: %v", scheme, rep.Failure)
		}
		if rep.Stats.Aborts == 0 {
			t.Fatalf("%s: no clean abort despite injected ENOSPC faults: %+v", scheme, rep.Stats)
		}
		if rep.Stats.Ops < 45 {
			t.Fatalf("%s: store did not stay writable after ENOSPC aborts: %+v", scheme, rep.Stats)
		}
	}
}

// TestSimFindsKnownBug is the harness acceptance test of the issue: with
// the PR-4 W-BOX tombstone-stranded-rebuild bug deliberately
// re-introduced (wbox.HookStrandEmptyTree), the smoke seed budget must
// find a failing history, the minimizer must shrink it to at most 50
// events, and both the minimized trace and the original seed must replay
// the failure byte-identically.
func TestSimFindsKnownBug(t *testing.T) {
	wbox.HookStrandEmptyTree = true
	defer func() { wbox.HookStrandEmptyTree = false }()

	var (
		found *Report
		cfg   Config
	)
	for _, seed := range smokeSeeds {
		cfg = Config{Seed: seed, Scheme: "wbox", Mix: MixChurn, Ops: 150, FaultRate: 0.08}
		rep, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failure != nil {
			found = rep
			break
		}
	}
	if found == nil {
		t.Fatalf("re-introduced bug not found within the smoke seed budget %v", smokeSeeds)
	}
	t.Logf("seed %d finds the bug: %v", cfg.Seed, found.Failure)

	// Replaying the seed reproduces the failure byte-identically.
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Failure == nil || *again.Failure != *found.Failure {
		t.Fatalf("replay of seed %d differs: %v vs %v", cfg.Seed, again.Failure, found.Failure)
	}
	if again.ExecDigest != found.ExecDigest {
		t.Fatalf("replay of seed %d: exec digest %s, want %s", cfg.Seed, again.ExecDigest, found.ExecDigest)
	}

	// The minimizer shrinks the history to a handful of events.
	trace, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := cfg
	mcfg.Metrics = obs.NewRegistry()
	mres, err := Minimize(mcfg, trace, found.Failure, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mres.Report.Failure == nil {
		t.Fatal("minimized trace does not fail")
	}
	if len(mres.Events) > 50 {
		t.Fatalf("minimized history has %d events, want <= 50 (from %d)", len(mres.Events), len(trace))
	}
	if in, out := mcfg.Metrics.Counter(obs.CtrSimMinimizeEventsIn), mcfg.Metrics.Counter(obs.CtrSimMinimizeEventsOut); in != uint64(len(trace)) || out != uint64(len(mres.Events)) {
		t.Fatalf("shrink-ratio counters: in=%d out=%d, want %d/%d", in, out, len(trace), len(mres.Events))
	}
	t.Logf("minimized %d -> %d events in %d runs: %v", len(trace), len(mres.Events), mres.Runs, mres.Report.Failure)

	// The minimized trace replays identically too.
	mrep, err := RunTrace(cfg, mres.Events)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Failure == nil || mrep.ExecDigest != mres.Report.ExecDigest {
		t.Fatalf("minimized trace replay diverged: %v digest %s, want %v digest %s",
			mrep.Failure, mrep.ExecDigest, mres.Report.Failure, mres.Report.ExecDigest)
	}

	// With the hook off, the same histories pass: the harness is
	// detecting the bug, not its own noise.
	wbox.HookStrandEmptyTree = false
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failure != nil {
		t.Fatalf("seed %d fails even without the bug: %v", cfg.Seed, clean.Failure)
	}
	wbox.HookStrandEmptyTree = true
}

// TestSimTraceRoundTrip checks the trace artifact a CI failure uploads is
// sufficient to replay the run.
func TestSimTraceRoundTrip(t *testing.T) {
	cfg := Config{Seed: 11, Scheme: "bbox", Mix: MixMixed, Ops: 40, FaultRate: 0.1}
	trace, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.json"
	if err := SaveTrace(path, cfg, trace); err != nil {
		t.Fatal(err)
	}
	cfg2, trace2, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if TraceDigest(cfg2, trace2) != TraceDigest(cfg, trace) {
		t.Fatal("trace digest changed across save/load")
	}
	a, err := RunTrace(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(cfg2, trace2)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecDigest != b.ExecDigest {
		t.Fatal("loaded trace executed differently")
	}
}

// TestSimCounters checks the sim_* observability counters move.
func TestSimCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Seed: 42, Scheme: "wbox", Mix: MixMixed, Ops: 250, FaultRate: 0.12, Metrics: reg}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure != nil {
		t.Fatal(rep.Failure)
	}
	if got := reg.Counter(obs.CtrSimHistories); got != 1 {
		t.Fatalf("sim_histories_total = %d, want 1", got)
	}
	if got := reg.Counter(obs.CtrSimOps); got != uint64(rep.Stats.Ops) {
		t.Fatalf("sim_ops_total = %d, want %d", got, rep.Stats.Ops)
	}
	if got := reg.Counter(obs.CtrSimRestarts); got != uint64(rep.Stats.Restarts) {
		t.Fatalf("sim_restarts_total = %d, want %d", got, rep.Stats.Restarts)
	}
	if rep.Stats.Faults > 0 {
		sum := reg.Counter(obs.CtrSimFaultsCrash) + reg.Counter(obs.CtrSimFaultsNoSpace) +
			reg.Counter(obs.CtrSimFaultsSyncFail) + reg.Counter(obs.CtrSimFaultsTransient) +
			reg.Counter(obs.CtrSimRedoCrashes)
		if sum == 0 {
			t.Fatal("faults injected but no sim_faults_* counter moved")
		}
	}
}
