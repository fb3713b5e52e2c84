package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/query"
	"boxes/internal/xmlgen"
)

const (
	// docSeed fixes the XMark document, the benchmark's dataset; --seed
	// drives every operation stream over it.
	docSeed = 1
	// readCacheBlocks is xmark-read's LRU: more than the whole store
	// (about 900 blocks of 8 KiB at 200k elements), so every lookup hits.
	readCacheBlocks = 2048
	// probeTime is the length of the sample taken, after the main loop,
	// of the operation class a workload's loop does not issue: writes on
	// xmark-read, reads on xmark-update.
	probeTime = 8 * time.Second
	// orderSamples and orderWindow size the document-order check: every
	// (n/orderSamples)-th tag plus orderWindow tags from the hot region.
	orderSamples = 20000
	orderWindow  = 2048
)

// setUp builds a fixture n times, timing each, and keeps the last one;
// setup_s is the median so that one slow set-up does not move it.
func setUp[F interface{ close() error }](n int, build func() (F, error)) (F, float64, error) {
	var f F
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := f.close(); err != nil {
				return f, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = build(); err != nil {
			return f, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	slices.Sort(times)
	return f, times[len(times)/2], nil
}

// memFixture is an in-memory W-BOX store holding the loaded document.
type memFixture struct {
	tree    *xmlgen.Tree
	st      *core.Store
	doc     *core.Document
	backend pager.Backend
	io      *ioTimer // traced runs only
}

func (f *memFixture) close() error { return f.st.Close() }

// releaseTree drops the generated tree once the benchmark has its tag
// list, so the heap the program runs with holds the store, not the input.
func (f *memFixture) releaseTree() {
	f.tree, f.doc.Tree = nil, nil
	runtime.GC()
}

func setupMem(cfg config, tr *tracer, cacheBlocks int) (*memFixture, error) {
	f := &memFixture{tree: xmlgen.XMark(cfg.elements, docSeed)}
	mb := pager.NewMemBackend(pager.DefaultBlockSize)
	f.backend = mb
	if tr != nil {
		f.io = newIOTimer(tr, laneMain, laneMain, false)
		f.backend = memBackend{MemBackend: mb, io: f.io}
	}
	st, err := core.Open(core.Options{Scheme: core.SchemeWBox, CacheBlocks: cacheBlocks, Backend: f.backend})
	if err != nil {
		return nil, err
	}
	f.st = st
	if f.doc, err = st.Load(f.tree); err == nil {
		err = st.Save()
	}
	if err != nil {
		return nil, errors.Join(err, st.Close())
	}
	return f, nil
}

// runPhases runs the main loop: once in an untraced run. A traced run
// splits the budget into an untraced quarter, a traced half and another
// untraced quarter, so the untraced halves bracket the traced one and
// drift cancels out of the tracing overhead. It returns the phase the
// end-to-end metrics use, the untraced quarters and the traced half.
func runPhases(cfg config, tr *tracer, loop func(budget) *phase) (main *phase, u []*phase, t *phase) {
	b := newBudget(time.Duration(cfg.seconds*float64(time.Second)), cfg.ops)
	if tr == nil {
		main = loop(b)
		main.footprintMB = footprintMB()
		return main, nil, nil
	}
	u = append(u, loop(b.part(0.25, b.ops/4)))
	tr.on.Store(true)
	t = loop(b.part(2.0/3, b.ops/2))
	tr.on.Store(false)
	u = append(u, loop(b.part(1, b.ops/4)))
	t.footprintMB = footprintMB()
	tr.on.Store(true)
	return t, u, t
}

// reportE2E adds the end-to-end metrics of main loop p; the read and
// write latencies come from the phases rp and wp (the main loop, or the
// sample taken after it).
func reportE2E(res *result, setupS float64, p, rp, wp *phase, blocks, elems uint64) {
	d := p.m1
	io := d.io.Sub(p.m0.io)
	hits := d.hits - p.m0.hits
	opsPerSec, cpuPerOp := p.rates()
	reads, writes := rp.calmLatencies(rp.reads), wp.calmLatencies(wp.writes)
	res.add(true, "setup_s", "s", setupS)
	res.add(true, "ops_per_s", "ops/s", opsPerSec)
	res.add(true, "read_p50_us", "us", reads.pct(0.50))
	res.add(true, "write_p50_us", "us", writes.pct(0.50))
	res.add(true, "cpu_us_per_op", "us", cpuPerOp)
	// Block accesses per op: IOStats reads+writes plus LRU hits. Without
	// an LRU (xmark-update, served-mixed) that is IOStats alone, the
	// paper's caching-off I/O count; on xmark-read, whose LRU holds the
	// whole store, IOStats alone would read 0.
	res.add(true, "block_ios_per_op", "count", ratio(float64(io.Total()+hits), float64(p.ops)))
	res.add(true, "bytes_per_elem", "B", ratio(float64(blocks*pager.DefaultBlockSize), float64(elems)))
	res.add(true, "rss_mb", "MB", p.footprintMB)
	// The tails are reported but not gated: on a small shared machine
	// they moved by more than any bound between runs (see README.md).
	res.notef("%-28s %14.4f us (of %d samples)", "read_p99_us", reads.pct(0.99), len(reads))
	res.notef("%-28s %14.4f us (of %d samples)", "write_p99_us", writes.pct(0.99), len(writes))
	res.notef("%-28s %14.4f MB (VmHWM)", "rss_peak_mb", peakRSSMB())
	res.notef("samples: ops=%d in %.3fs; windows with steal <= %.0f%%: main %d of %d, reads %d (of %d), writes %d (of %d)",
		p.ops, p.wall().Seconds(), 100*stealMax, len(p.calm()), len(p.marks)-1, len(reads), len(rp.reads), len(writes), len(wp.writes))
}

// countIs checks the number of live elements a store reports.
func countIs(got, want uint64) error {
	if got != want {
		return fmt.Errorf("store holds %d elements, want %d", got, want)
	}
	return nil
}

func sign(d int) int {
	switch {
	case d < 0:
		return -1
	case d > 0:
		return 1
	}
	return 0
}

// zipfTargets draws element indices: zipf ranks (s = 1.1) mapped through
// a seeded permutation, so hot elements are spread across leaves.
type zipfTargets struct {
	perm []int
	z    *rand.Zipf
}

func newZipfTargets(rng *rand.Rand, n int) *zipfTargets {
	return &zipfTargets{perm: rng.Perm(n), z: rand.NewZipf(rng, zipfS, 1, uint64(n-1))}
}

func (z *zipfTargets) next() int { return z.perm[z.z.Uint64()] }

// runRead is xmark-read: one goroutine, 80% LookupSpan and 20% Compare on
// a store whose LRU holds every block.
func runRead(cfg config, tr *tracer) (*result, error) {
	res := &result{}
	n := cfg.setups
	if tr != nil {
		n = 1
	}
	f, setupS, err := setUp(n, func() (*memFixture, error) { return setupMem(cfg, tr, readCacheBlocks) })
	if err != nil {
		return nil, err
	}
	defer f.close()
	if b := f.st.Blocks(); b > readCacheBlocks {
		return nil, fmt.Errorf("store has %d blocks, more than the %d-block LRU", b, readCacheBlocks)
	}
	st, elems := f.st, f.doc.Elems
	// The write sample taken after the read phase: inserts and deletes
	// 50/50 at uniform positions, so it covers the whole store rather
	// than one hot region.
	ch := newChurn(newTagList(f.tree, elems, func(i int) bool { return i == 0 }), cfg.seed)
	ch.uniform = true
	f.releaseTree()
	rng := rand.New(rand.NewSource(cfg.seed))
	targets := newZipfTargets(rng, len(elems))
	loop := func(b budget) *phase {
		p := newPhase(st, f.backend)
		for now := time.Now(); !b.done(int(p.done.Load()), now); now = time.Now() {
			p.tick(now)
			i := targets.next()
			if rng.Intn(5) != 0 {
				t0 := nowNanos()
				sp, err := call(tr, spStoreLookupSpan, laneMain, func() (query.Span, error) { return st.LookupSpan(elems[i]) })
				p.read(t0)
				if err == nil && sp.Start >= sp.End {
					err = fmt.Errorf("element %d: span %d..%d", i, sp.Start, sp.End)
				}
				res.check(err)
			} else {
				j := targets.next()
				t0 := nowNanos()
				c, err := call(tr, spStoreCompare, laneMain, func() (int, error) { return st.Compare(elems[i].Start, elems[j].Start) })
				p.read(t0)
				if err == nil && c != sign(i-j) {
					err = fmt.Errorf("compare(%d, %d) = %d", i, j, c)
				}
				res.check(err)
			}
			p.done.Add(1)
		}
		p.finish(st, f.backend)
		return p
	}
	main, u, t := runPhases(cfg, tr, loop)
	blocks, live := st.Blocks(), st.Count()/2

	wp := probe(cfg, st, f.backend, func(p *phase) error { return storeChurn(st, ch, tr, p) }, res)
	res.check(st.CheckInvariants())
	reportE2E(res, setupS, main, main, wp, blocks, live)
	res.notef("write latencies: a %v write sample after the read phase", probeTime)
	if tr == nil {
		return res, nil
	}
	lk, an := tagTargets(ch.tags, cfg.seed)
	return res, memLayers(cfg, tr, f, res, u, t, lk, an)
}

// probe runs op in a closed loop for probeTime (cfg.ops times in the
// self-test), checking each answer into res.
func probe(cfg config, st *core.Store, b pager.Backend, op func(*phase) error, res *result) *phase {
	p := newPhase(st, b)
	runtime.GC()
	pb := newBudget(probeTime, cfg.ops)
	for now := time.Now(); !pb.done(int(p.done.Load()), now); now = time.Now() {
		p.tick(now)
		res.check(op(p))
		p.done.Add(1)
	}
	p.finish(st, b)
	return p
}

// storeChurn applies one churn operation through core.Store.
func storeChurn(st *core.Store, ch *churn, tr *tracer, p *phase) error {
	op := ch.next()
	var e order.ElemLIDs
	t0 := nowNanos()
	var err error
	if op.insert {
		e, err = call(tr, spStoreInsert, laneMain, func() (order.ElemLIDs, error) { return st.InsertElementBefore(op.before) })
	} else {
		_, err = call(tr, spStoreDelete, laneMain, func() (struct{}, error) { return struct{}{}, st.DeleteElement(op.elem) })
	}
	p.write(t0)
	if err != nil {
		return err
	}
	ch.applied(op, e)
	return nil
}

// runUpdate is xmark-update: one goroutine, inserts and deletes 50/50 at
// zipf positions over document order, with no LRU.
func runUpdate(cfg config, tr *tracer) (*result, error) {
	res := &result{}
	n := cfg.setups
	if tr != nil {
		n = 1
	}
	f, setupS, err := setUp(n, func() (*memFixture, error) { return setupMem(cfg, tr, 0) })
	if err != nil {
		return nil, err
	}
	defer f.close()
	st := f.st
	start := len(f.doc.Elems)
	ch := newChurn(newTagList(f.tree, f.doc.Elems, func(i int) bool { return i == 0 }), cfg.seed)
	f.releaseTree()
	loop := func(b budget) *phase {
		p := newPhase(st, f.backend)
		for now := time.Now(); !b.done(int(p.done.Load()), now); now = time.Now() {
			p.tick(now)
			res.check(storeChurn(st, ch, tr, p))
			p.done.Add(1)
		}
		p.finish(st, f.backend)
		return p
	}
	main, u, t := runPhases(cfg, tr, loop)
	blocks, live := st.Blocks(), st.Count()/2

	rng := rand.New(rand.NewSource(cfg.seed))
	rp := probe(cfg, st, f.backend, func(p *phase) error {
		// Uniform over live tags, so the sample covers the whole churned
		// store rather than the few leaves holding the hottest ranks.
		lid := ch.tags.at(rng.Intn(ch.tags.n)).lid()
		t0 := nowNanos()
		_, err := call(tr, spStoreLookup, laneMain, func() (order.Label, error) { return st.Lookup(lid) })
		p.read(t0)
		return err
	}, res)
	res.check(st.CheckInvariants())
	res.check(ch.checkOrder(st.Lookup, orderSamples, orderWindow))
	res.check(countIs(live, uint64(start+ch.inserts-ch.deletes)))
	reportE2E(res, setupS, main, rp, main, blocks, live)
	res.notef("read latencies: a %v read sample after the update phase", probeTime)
	if tr == nil {
		return res, nil
	}
	lk, an := tagTargets(ch.tags, cfg.seed)
	return res, memLayers(cfg, tr, f, res, u, t, lk, an)
}

// tagTargets draws the ladder's lookup targets and write anchors: live
// tags at zipf-ranked positions.
func tagTargets(tags *tagList, seed int64) (lookups, anchors []order.LID) {
	z := newZipfTargets(rand.New(rand.NewSource(seed)), tags.n)
	lookups = make([]order.LID, ladderLookups)
	for i := range lookups {
		lookups[i] = tags.at(z.next()).lid()
	}
	anchors = make([]order.LID, ladderWrites)
	for i := range anchors {
		anchors[i] = tags.at(z.next()).lid()
	}
	return lookups, anchors
}

// memLayers finishes a traced in-memory run: the ladder, with a SyncStore
// and a loopback server put over the store for the top rungs, then the
// per-layer metrics and the trace file.
func memLayers(cfg config, tr *tracer, f *memFixture, res *result, u []*phase, t *phase, lookups, anchors []order.LID) error {
	wb, co := labelerRung(f.st, tr), coreRung(f.st, tr)
	if err := climbLookups([]*rung{wb, co}, lookups); err != nil {
		return err
	}
	if err := climbWrites([]*rung{wb, co}, anchors); err != nil {
		return err
	}
	if err := readBlocks(f.backend, f.io.liveRecent()); err != nil {
		return err
	}
	ss := core.NewSyncStore(f.st)
	lb, err := startServer(ss, tr)
	if err != nil {
		return err
	}
	wire := &wireCounter{}
	c, err := lb.dial(wire, tr, laneMain)
	if err != nil {
		return errors.Join(err, lb.stop())
	}
	sv0 := takeServe(lb.met, 0, wire)
	sy, cl := syncRung(ss, tr), clientRung(c, tr)
	err = climbLookups([]*rung{sy, cl}, lookups)
	if err == nil {
		err = climbWrites([]*rung{sy, cl}, anchors)
	}
	sv1 := takeServe(lb.met, len(cl.lookups)+len(cl.inserts)+len(cl.deletes), wire)
	err = errors.Join(err, c.Close(), lb.stop())
	if err != nil {
		return err
	}
	end := takeMeter(ss, f.backend)
	tr.on.Store(false)
	reportLayers(res, layerInputs{
		u: u, t: t, end: end,
		wbox: wb, core: co, sync: sy, client: cl,
		io: f.io, serve: sv1.sub(sv0),
	})
	return writeTrace(cfg, tr, res)
}
