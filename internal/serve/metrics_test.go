package serve

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"boxes/internal/obs"
)

// TestServePhaseRows drives inserts and lookups over the wire and checks
// that the server's phases land on the "rpc_<opcode>" rows of the store
// registry's phase family, that PhaseSnapshot reads those rows, and that
// /metrics announces the family once with no per-RPC quantile gauges and
// no separate lock-wait family.
func TestServePhaseRows(t *testing.T) {
	const inserts, lookups = 12, 7
	env := startEnv(t, envOptions{})
	reg := env.store.MetricsRegistry()
	reg.RegisterCollector(env.met)
	ctx := context.Background()
	c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	root, err := c.InsertFirst(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inserts; i++ {
		if _, err := c.Insert(ctx, root.End); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < lookups; i++ {
		if _, err := c.Lookup(ctx, root.Start); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	c.Close()
	// The respond phase is observed after the frame write the client
	// already saw; the drain waits for every handler, so all rows are final.
	env.shutdown()

	phases := reg.Snapshot().Phases
	wantRows := map[string]map[string]uint64{
		"rpc_insert_first": {"rpc_queue": 1, "rpc_apply": 1, "rpc_respond": 1},
		"rpc_insert":       {"rpc_queue": inserts, "rpc_apply": inserts, "rpc_respond": inserts},
		"rpc_lookup":       {"rpc_respond": lookups},
	}
	for row, want := range wantRows {
		got := phases[row]
		if len(got) != len(want) {
			t.Errorf("row %s has phases %v, want %v", row, keys(got), want)
		}
		for ph, n := range want {
			if h := got[ph]; h.Total() != n {
				t.Errorf("row %s phase %s: %d observations, want %d", row, ph, h.Total(), n)
			}
		}
	}
	for row := range phases {
		if strings.HasPrefix(row, "rpc_") && wantRows[row] == nil {
			t.Errorf("unexpected served row %s: %v", row, keys(phases[row]))
		}
	}

	snap := env.met.PhaseSnapshot("insert")
	for i, ph := range []string{"rpc_queue", "rpc_apply", "rpc_respond"} {
		row := phases["rpc_insert"][ph]
		if snap[i].Total() != row.Total() || snap[i].Sum != row.Sum {
			t.Errorf("PhaseSnapshot(insert)[%d] = %d obs / %d ns, row %s holds %d / %d",
				i, snap[i].Total(), snap[i].Sum, ph, row.Total(), row.Sum)
		}
	}

	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	types := parseExposition(t, out)
	if n := types["boxes_phase_duration_seconds"]; n != 1 {
		t.Errorf("boxes_phase_duration_seconds announced %d times, want 1", n)
	}
	for _, banned := range []string{"serve_rpc_", "boxes_lock_wait_seconds"} {
		if strings.Contains(out, banned) {
			t.Errorf("/metrics still exposes %s series", banned)
		}
	}
	if !strings.Contains(out, `boxes_phase_duration_seconds_count{op="rpc_insert",phase="rpc_apply"} `+strconv.Itoa(inserts)+"\n") {
		t.Errorf("/metrics lacks the rpc_insert apply row")
	}
}

// TestRPCRowNames guards the registry's row table against drift from the
// wire opcodes: each opcode's phases land on "rpc_" + its OpName.
func TestRPCRowNames(t *testing.T) {
	for op := OpInsert; op <= OpBatch; op++ {
		reg := obs.NewRegistry()
		reg.ObservePhaseRPC(op, obs.PhaseRPCRespond, time.Microsecond)
		want := "rpc_" + strings.ReplaceAll(OpName(op), "-", "_")
		phases := reg.Snapshot().Phases
		if len(phases) != 1 || phases[want]["rpc_respond"].Total() != 1 {
			t.Errorf("opcode %d (%s): rows %v, want one observation on %s", op, OpName(op), phases, want)
		}
	}
}

// parseExposition checks the Prometheus text format line by line: every
// sample is `name[{labels}] value` with a float value and belongs to a
// family announced by a # TYPE line. It returns how often each family
// was announced.
func parseExposition(t *testing.T, out string) map[string]int {
	t.Helper()
	types := map[string]int{}
	for i, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", i+1, line)
			}
			types[f[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value in %q", i+1, line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("line %d: bad value in %q: %v", i+1, line, err)
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels in %q", i+1, line)
			}
			name = name[:br]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && types[base] > 0 {
				family = base
			}
		}
		if types[family] == 0 {
			t.Fatalf("line %d: sample %s has no # TYPE announcement", i+1, name)
		}
	}
	return types
}

func keys(m map[string]obs.HistSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
