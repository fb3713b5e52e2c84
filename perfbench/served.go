package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"boxes/internal/core"
	"boxes/internal/fsck"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/serve"
	"boxes/internal/xmlgen"
)

// servedFixture is served-mixed's durable file store behind an
// in-process server with boxserve's configuration.
type servedFixture struct {
	dir, path      string
	tree           *xmlgen.Tree
	doc            *core.Document
	backend        pager.Backend
	io             *ioTimer // traced runs only
	ss             *core.SyncStore
	lb             *loopback
	reader, writer *serve.Client
	wire           []*wireCounter // traced runs only
}

func (f *servedFixture) close() error {
	return errors.Join(f.stop(), os.RemoveAll(f.dir))
}

// stop closes the clients, drains the server and closes the store.
func (f *servedFixture) stop() error {
	var err error
	for _, c := range []*serve.Client{f.reader, f.writer} {
		if c != nil {
			err = errors.Join(err, c.Close())
		}
	}
	f.reader, f.writer = nil, nil
	if f.lb != nil {
		err = errors.Join(err, f.lb.stop())
		f.lb = nil
	}
	if f.ss != nil {
		err = errors.Join(err, f.ss.Close())
		f.ss = nil
	}
	return err
}

func setupServed(cfg config, tr *tracer) (*servedFixture, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "served-")
	if err != nil {
		return nil, err
	}
	f := &servedFixture{dir: dir, path: filepath.Join(dir, "store.box"), tree: xmlgen.XMark(cfg.elements, docSeed)}
	fail := func(err error) (*servedFixture, error) { return nil, errors.Join(err, f.close()) }
	fb, err := pager.CreateFileOpts(f.path, pager.FileOptions{BlockSize: pager.DefaultBlockSize, NoSync: true})
	if err != nil {
		return fail(err)
	}
	f.backend = fb
	if tr != nil {
		f.io = newIOTimer(tr, laneServerRead, laneServerWrite, true)
		f.backend = fileBackend{FileBackend: fb, io: f.io}
	}
	st, err := core.Open(core.Options{Scheme: core.SchemeWBox, Backend: f.backend,
		Durable: true, Durability: &pager.Durability{Every: 8}})
	if err != nil {
		return fail(errors.Join(err, fb.Close()))
	}
	// A durable Load is one transaction, metadata included, so it is the
	// Save of a durable store.
	if f.doc, err = st.Load(f.tree); err != nil {
		return fail(errors.Join(err, st.Close()))
	}
	f.ss = core.NewSyncStore(st)
	if f.lb, err = startServer(f.ss, tr); err != nil {
		return fail(err)
	}
	var rw, ww *wireCounter
	if tr != nil {
		rw, ww = &wireCounter{}, &wireCounter{}
		f.wire = []*wireCounter{rw, ww}
	}
	if f.reader, err = f.lb.dial(rw, tr, laneMain); err != nil {
		return fail(err)
	}
	if f.writer, err = f.lb.dial(ww, tr, laneWriter); err != nil {
		return fail(err)
	}
	return f, nil
}

// servedReader issues zipf Lookup (80%) and Compare (20%) on the even
// preorder elements, which the writer never deletes.
type servedReader struct {
	c       *serve.Client
	elems   []order.ElemLIDs
	tr      *tracer
	rng     *rand.Rand
	targets *zipfTargets
}

func (r *servedReader) next() int { return 2 * r.targets.next() }

// readsPerWrite sets the mix: one write per readsPerWrite reads, the mix
// of the served prototype the benchmark was sized from (12.7k-14.0k reads/s
// beside 380-410 writes/s, about 33:1). After every readsPerWrite reads the
// reader hands the writer one write, and waits while the writer is more
// than one write behind, so the mix holds whatever the write latency: a
// slower write path lowers ops_per_s instead of the write share. A timed
// pause would not do: on a 2-vCPU VM sleeps overshoot by 0.7 ms and vary
// with load.
const readsPerWrite = 33

// run issues reads until b is spent, handing the writer one write on pace
// after every readsPerWrite reads, and closes pace when it stops.
func (r *servedReader) run(b budget, p *phase, pace chan<- struct{}, writerDone <-chan struct{}, res *result) {
	defer close(pace)
	ctx := context.Background()
	for n, now := 0, time.Now(); !b.done(n, now); n, now = n+1, time.Now() {
		p.tick(now)
		p.done.Add(1)
		if n%readsPerWrite == 0 {
			select {
			case pace <- struct{}{}:
			case <-writerDone: // the writer's budget ran out first
			}
		}
		i := r.next()
		if r.rng.Intn(5) != 0 {
			t0 := nowNanos()
			_, err := call(r.tr, spClientLookup, laneMain, func() (order.Label, error) { return r.c.Lookup(ctx, r.elems[i].Start) })
			p.read(t0)
			res.check(err)
			continue
		}
		j := r.next()
		t0 := nowNanos()
		c, err := call(r.tr, spClientCompare, laneMain, func() (int, error) { return r.c.Compare(ctx, r.elems[i].Start, r.elems[j].Start) })
		p.read(t0)
		if err == nil && c != sign(i-j) {
			err = fmt.Errorf("compare(%d, %d) = %d", i, j, c)
		}
		res.check(err)
	}
}

// servedWriter issues xmark-update's churn through its own client; each
// call returns after the write is durable.
type servedWriter struct {
	c  *serve.Client
	ch *churn
	tr *tracer
}

// run issues one write per signal on pace until b is spent or pace closes.
func (w *servedWriter) run(b budget, p *phase, pace <-chan struct{}, res *result) {
	ctx := context.Background()
	for n := 0; !b.done(n, time.Now()); n++ {
		if _, ok := <-pace; !ok {
			return
		}
		p.done.Add(1)
		op := w.ch.next()
		var e order.ElemLIDs
		var err error
		t0 := nowNanos()
		if op.insert {
			e, err = call(w.tr, spClientInsert, laneWriter, func() (order.ElemLIDs, error) { return w.c.Insert(ctx, op.before) })
		} else {
			_, err = call(w.tr, spClientDelete, laneWriter, func() (struct{}, error) { return struct{}{}, w.c.DeleteElement(ctx, op.elem) })
		}
		p.write(t0)
		res.check(err)
		if err == nil {
			w.ch.applied(op, e)
		}
	}
}

// checkMix checks that a loop kept the mix: the reader offers one write
// per readsPerWrite reads, the first before read 0. When the time runs out
// the writer may leave the last two undone: one buffered in pace, one the
// reader stopped waiting to hand over.
func checkMix(reads, writes int) error {
	want := (reads + readsPerWrite - 1) / readsPerWrite
	if writes > want || writes < want-2 {
		return fmt.Errorf("mix: %d writes beside %d reads, want %d", writes, reads, want)
	}
	return nil
}

func (r *result) merge(o *result) {
	r.attempted += o.attempted
	for _, w := range o.wrong {
		if len(r.wrong) < 10 {
			r.wrong = append(r.wrong, w)
		}
	}
	r.failed += o.failed
}

// runServed is served-mixed: a reader and a writer, each a closed loop on
// its own connection to an in-process server over a durable store.
func runServed(cfg config, tr *tracer) (*result, error) {
	res := &result{}
	n := cfg.setups
	if tr != nil {
		n = 1
	}
	f, setupS, err := setUp(n, func() (*servedFixture, error) { return setupServed(cfg, tr) })
	if err != nil {
		return nil, err
	}
	defer f.close()
	elems := f.doc.Elems
	start := len(elems)
	ch := newChurn(newTagList(f.tree, elems, func(i int) bool { return i%2 == 0 }), cfg.seed)
	f.tree, f.doc.Tree = nil, nil
	runtime.GC()
	rd := &servedReader{c: f.reader, elems: elems, tr: tr, rng: rand.New(rand.NewSource(cfg.seed + 1))}
	rd.targets = newZipfTargets(rd.rng, (start+1)/2)
	wr := &servedWriter{c: f.writer, ch: ch, tr: tr}
	var reads, writes int
	loop := func(b budget) *phase {
		p := newPhase(f.ss, f.backend)
		p.sv0 = takeServe(f.lb.met, 0, f.wire...)
		rres, wres := &result{}, &result{}
		done := make(chan struct{})
		pace := make(chan struct{}, 1)
		go func() {
			defer close(done)
			wr.run(b, p, pace, wres)
		}()
		rd.run(b, p, pace, done, rres)
		<-done
		p.finish(f.ss, f.backend)
		p.sv1 = takeServe(f.lb.met, p.ops, f.wire...)
		res.merge(rres)
		res.merge(wres)
		res.check(checkMix(len(p.reads), len(p.writes)))
		reads, writes = reads+len(p.reads), writes+len(p.writes)
		return p
	}
	main, u, t := runPhases(cfg, tr, loop)
	blocks, live := f.ss.Unwrap().Blocks(), f.ss.Count()/2

	var lad *servedLadder
	if tr != nil {
		if lad, err = climbServed(f, tr, rd); err != nil {
			return nil, err
		}
	}
	if err := f.stop(); err != nil {
		return nil, err
	}
	// Acked implies durable: the reopened file must be fsck-clean and hold
	// exactly the preload plus the acknowledged churn, in document order.
	// (The ladder deletes every element it inserts.)
	st2, err := reopenChecked(f.path, uint64(start+ch.inserts-ch.deletes), res)
	if err != nil {
		return nil, err
	}
	res.check(ch.checkOrder(st2.Lookup, orderSamples/4, orderWindow/2))
	reportE2E(res, setupS, main, main, main, blocks, live)
	res.notef("mix: %d reads, %d writes, %.2f reads per write (target %d)",
		reads, writes, ratio(float64(reads), float64(writes)), readsPerWrite)
	if tr == nil {
		return res, st2.Close()
	}
	// The labeler and Store write rungs run on the reopened store, each
	// write its own synchronous WAL transaction: on the live store they
	// would bypass the SyncStore's writer bracket.
	wb, co := labelerRung(st2, tr), coreRung(st2, tr)
	err = climbWrites([]*rung{wb, co}, lad.anchors)
	tr.on.Store(false)
	if err = errors.Join(err, st2.Close()); err != nil {
		return nil, err
	}
	lad.wbox.inserts, lad.wbox.deletes = wb.inserts, wb.deletes
	lad.core.inserts, lad.core.deletes = co.inserts, co.deletes
	reportLayers(res, layerInputs{
		u: u, t: t, end: lad.end,
		wbox: lad.wbox, core: lad.core, sync: lad.sync, client: lad.client,
		io: f.io, serve: t.sv1.sub(t.sv0),
	})
	return res, writeTrace(cfg, tr, res)
}

// servedLadder is the part of served-mixed's ladder run on the live store.
type servedLadder struct {
	wbox, core, sync, client *rung
	anchors                  []order.LID
	end                      meter
}

// climbServed runs every lookup rung, the backend rung, and the SyncStore
// and client write rungs on the live, idle store.
func climbServed(f *servedFixture, tr *tracer, rd *servedReader) (*servedLadder, error) {
	lookups := make([]order.LID, ladderLookups)
	for i := range lookups {
		lookups[i] = rd.elems[rd.next()].Start
	}
	anchors := lookups[:ladderWrites]
	st := f.ss.Unwrap()
	l := &servedLadder{
		wbox: labelerRung(st, tr), core: coreRung(st, tr),
		sync: syncRung(f.ss, tr), client: clientRung(f.reader, tr),
		anchors: anchors,
	}
	if err := climbLookups([]*rung{l.wbox, l.core, l.sync, l.client}, lookups); err != nil {
		return nil, err
	}
	if err := readBlocks(f.backend, f.io.liveRecent()); err != nil {
		return nil, err
	}
	if err := climbWrites([]*rung{l.sync, l.client}, anchors); err != nil {
		return nil, err
	}
	l.end = takeMeter(f.ss, f.backend)
	return l, nil
}

// reopenChecked fscks the closed store at path, reopens it, and checks it
// holds want elements.
func reopenChecked(path string, want uint64, res *result) (*core.Store, error) {
	rep, err := fsck.Check(path, fsck.Options{})
	if err != nil {
		return nil, fmt.Errorf("fsck: %w", err)
	}
	if !rep.Clean() {
		res.check(fmt.Errorf("fsck found %d problems, first: %v", len(rep.Problems), rep.Problems[0]))
	} else {
		res.check(nil)
	}
	fb, err := pager.OpenFileOpts(path, pager.FileOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	st, err := core.OpenExisting(fb, core.Options{})
	if err != nil {
		return nil, errors.Join(err, fb.Close())
	}
	res.check(countIs(st.Count()/2, want))
	return st, nil
}
