package main

import (
	"fmt"
	"path/filepath"

	"boxes/internal/obs"
	"boxes/internal/serve"
)

// serveSnap is a snapshot of the server's counters and of the client
// ends of the benchmark's connections.
type serveSnap struct {
	shed   uint64
	rows   [][3]obs.HistSnapshot // queue, apply, respond per write opcode
	bytes  int64
	frames int64
	dials  int64
	calls  int
}

// servedWriteOps are the opcodes the workloads write with.
var servedWriteOps = []string{"insert", "delete-element"}

func takeServe(met *serve.Metrics, calls int, wire ...*wireCounter) serveSnap {
	s := serveSnap{shed: met.Shed.Load(), calls: calls}
	for _, op := range servedWriteOps {
		s.rows = append(s.rows, met.PhaseSnapshot(op))
	}
	for _, w := range wire {
		s.bytes += w.bytes.Load()
		s.frames += w.writes.Load()
		s.dials += w.dials.Load()
	}
	return s
}

// serveDelta is what the server and the wire did between two snapshots.
type serveDelta struct {
	shed                     uint64
	queueUS, applyUS, respUS float64
	bytesPerOp               float64
	retries                  int64
}

func (s serveSnap) sub(o serveSnap) serveDelta {
	var sum, n [3]uint64
	for i := range s.rows {
		for ph := range s.rows[i] {
			d := s.rows[i][ph].Sub(o.rows[i][ph])
			sum[ph] += d.Sum
			n[ph] += d.Total()
		}
	}
	mean := func(ph int) float64 { return ratio(float64(sum[ph])/1e3, float64(n[ph])) }
	calls := s.calls - o.calls
	return serveDelta{
		shed:       s.shed - o.shed,
		queueUS:    mean(0),
		applyUS:    mean(1),
		respUS:     mean(2),
		bytesPerOp: ratio(float64(s.bytes-o.bytes), float64(calls)),
		// Every request frame beyond one per call and every handshake
		// frame beyond one per dial is a client re-send.
		retries: (s.frames - o.frames) - (s.dials - o.dials) - int64(calls),
	}
}

// layerInputs is everything a traced run measured for the per-layer
// metrics. [t.m0, end] is the traced section: the traced half of the
// main loop plus the checks and the ladder.
type layerInputs struct {
	u                        []*phase // the untraced quarters
	t                        *phase
	end                      meter
	wbox, core, sync, client *rung
	io                       *ioTimer
	serve                    serveDelta
}

func reportLayers(res *result, in layerInputs) {
	t := in.t
	a, b := t.m0, in.end
	lay := func(name, unit string, v float64) { res.add(false, name, unit, v) }

	lay("wbox.lookup_us", "us", in.wbox.lookups.meanUS())
	lay("wbox.insert_us", "us", in.wbox.inserts.meanUS())
	lay("wbox.delete_us", "us", in.wbox.deletes.meanUS())
	led := func(k string) float64 { return float64(b.ledger[k] - a.ledger[k]) }
	lay("wbox.relabels_per_insert", "ratio", ratio(led("insert/relabels"), led("insert/ops")))
	lay("wbox.splits_per_insert", "ratio", ratio(led("insert/splits"), led("insert/ops")))
	lay("wbox.rebuilds", "count", led("*/rebuilds"))

	lay("core.lookup_us", "us", in.core.lookups.meanUS())
	lay("core.sync_lookup_us", "us", in.sync.lookups.meanUS())
	var rows []string
	for row := range b.snap.Phases {
		rows = append(rows, row)
	}
	lay("core.lock_wait_read_us", "us", phaseMean(a.snap, b.snap, rows, "lock_wait_read"))
	lay("core.lock_wait_write_us", "us", phaseMean(a.snap, b.snap, rows, "lock_wait_write"))

	io := t.m1.io.Sub(t.m0.io)
	lay("pager.reads_per_op", "count", ratio(float64(io.Reads), float64(t.ops)))
	lay("pager.writes_per_op", "count", ratio(float64(io.Writes), float64(t.ops)))
	hits, misses := float64(t.m1.hits-t.m0.hits), float64(t.m1.misses-t.m0.misses)
	lay("pager.lru_hit_ratio", "ratio", ratio(hits, hits+misses))
	in.io.mu.Lock()
	lay("pager.backend_read_us", "us", in.io.reads.meanUS())
	lay("pager.backend_write_us", "us", in.io.writes.meanUS())
	in.io.mu.Unlock()
	w0, w1 := t.m0.wal, t.m1.wal
	writes := float64(len(t.writes))
	lay("pager.wal_bytes_per_write", "B", ratio(float64(w1.WALBytes-w0.WALBytes), writes))
	lay("pager.fsyncs_per_write", "count", ratio(float64(w1.Syncs-w0.Syncs), writes))
	lay("pager.group_size", "count", ratio(float64(w1.GroupedTxns-w0.GroupedTxns), float64(w1.GroupCommits-w0.GroupCommits)))

	lay("serve.rtt_us", "us", in.client.lookups.meanUS()-in.sync.lookups.meanUS())
	lay("serve.queue_wait_us", "us", in.serve.queueUS)
	lay("serve.apply_us", "us", in.serve.applyUS)
	lay("serve.respond_us", "us", in.serve.respUS)
	lay("serve.wire_bytes_per_op", "B", in.serve.bytesPerOp)
	lay("serve.shed", "count", float64(in.serve.shed))
	lay("serve.retries", "count", float64(in.serve.retries))

	// The runtime is measured on the untraced quarters, so the tracer's own
	// allocations do not count.
	var uops, mallocs, bytes, gc, used, wall float64
	for _, p := range in.u {
		uops += float64(p.ops)
		mallocs += float64(p.m1.mallocs - p.m0.mallocs)
		bytes += float64(p.m1.allocBytes - p.m0.allocBytes)
		gc += p.m1.gcCPU - p.m0.gcCPU
		used += p.m1.usedCPU - p.m0.usedCPU
		wall += p.wall().Seconds()
	}
	lay("runtime.allocs_per_op", "count", ratio(mallocs, uops))
	lay("runtime.alloc_bytes_per_op", "B", ratio(bytes, uops))
	lay("runtime.gc_cpu_frac", "ratio", ratio(gc, used))

	lay("bench.trace_overhead_frac", "ratio", 1-ratio(t.opsPerSec(), ratio(uops, wall)))
	res.notef("traced ops=%d in %.3fs, untraced ops=%.0f in %.3fs", t.ops, t.wall().Seconds(), uops, wall)
}

// writeTrace writes the spans as a Perfetto-loadable file in the work
// directory and reports each layer's self time.
func writeTrace(cfg config, tr *tracer, res *result) error {
	self := tr.selfTimes()
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	res.notef("self time (ms) per layer:%s", describeSelf(self))
	res.notef("trace: %s (the last %d of %d spans)", path, len(tr.spans), tr.total)
	return tr.writeChrome(path, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "self_ns": self})
}
