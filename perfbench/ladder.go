package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"boxes/internal/core"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/serve"
)

// The ladder times the same lookup, insert and delete at each layer's
// public entry point on the workload's own store, interleaving the rungs
// so drift hits them alike. The difference between adjacent rungs is what
// that layer adds.
const (
	ladderLookups = 2000
	ladderWrites  = 200
	ladderBlocks  = 2000
)

// rung is one layer's entry points.
type rung struct {
	lookup func(order.LID) error
	insert func(order.LID) (order.ElemLIDs, error)
	del    func(order.ElemLIDs) error

	lookups, inserts, deletes latencies
}

func labelerRung(st *core.Store, tr *tracer) *rung {
	l := st.Labeler()
	return &rung{
		lookup: func(lid order.LID) error {
			_, err := call(tr, spWboxLookup, laneMain, func() (order.Label, error) { return l.Lookup(lid) })
			return err
		},
		insert: func(lid order.LID) (order.ElemLIDs, error) {
			return call(tr, spWboxInsert, laneMain, func() (order.ElemLIDs, error) { return l.InsertElementBefore(lid) })
		},
		del: func(e order.ElemLIDs) error {
			_, err := call(tr, spWboxDelete, laneMain, func() (struct{}, error) {
				if err := l.Delete(e.Start); err != nil {
					return struct{}{}, err
				}
				return struct{}{}, l.Delete(e.End)
			})
			return err
		},
	}
}

// storeAPI is what core.Store and core.SyncStore share for the ladder.
type storeAPI interface {
	Lookup(order.LID) (order.Label, error)
	InsertElementBefore(order.LID) (order.ElemLIDs, error)
	DeleteElement(order.ElemLIDs) error
}

func storeRung(st storeAPI, tr *tracer, lookup, insert, del spanKind) *rung {
	return &rung{
		lookup: func(lid order.LID) error {
			_, err := call(tr, lookup, laneMain, func() (order.Label, error) { return st.Lookup(lid) })
			return err
		},
		insert: func(lid order.LID) (order.ElemLIDs, error) {
			return call(tr, insert, laneMain, func() (order.ElemLIDs, error) { return st.InsertElementBefore(lid) })
		},
		del: func(e order.ElemLIDs) error {
			_, err := call(tr, del, laneMain, func() (struct{}, error) { return struct{}{}, st.DeleteElement(e) })
			return err
		},
	}
}

func coreRung(st *core.Store, tr *tracer) *rung {
	return storeRung(st, tr, spStoreLookup, spStoreInsert, spStoreDelete)
}

func syncRung(ss *core.SyncStore, tr *tracer) *rung {
	return storeRung(ss, tr, spSyncLookup, spSyncInsert, spSyncDelete)
}

func clientRung(c *serve.Client, tr *tracer) *rung {
	ctx := context.Background()
	return &rung{
		lookup: func(lid order.LID) error {
			_, err := call(tr, spClientLookup, laneMain, func() (order.Label, error) { return c.Lookup(ctx, lid) })
			return err
		},
		insert: func(lid order.LID) (order.ElemLIDs, error) {
			return call(tr, spClientInsert, laneMain, func() (order.ElemLIDs, error) { return c.Insert(ctx, lid) })
		},
		del: func(e order.ElemLIDs) error {
			_, err := call(tr, spClientDelete, laneMain, func() (struct{}, error) { return struct{}{}, c.DeleteElement(ctx, e) })
			return err
		},
	}
}

// climbLookups looks up each target once on every rung, rotating which
// rung goes first.
func climbLookups(rungs []*rung, targets []order.LID) error {
	for i, lid := range targets {
		for k := range rungs {
			r := rungs[(i+k)%len(rungs)]
			t0 := nowNanos()
			err := r.lookup(lid)
			r.lookups = append(r.lookups, nowNanos()-t0)
			if err != nil {
				return fmt.Errorf("ladder lookup %d: %w", lid, err)
			}
		}
	}
	return nil
}

// climbWrites inserts an element before each anchor and deletes it again
// on every rung, so the document ends as it started.
func climbWrites(rungs []*rung, anchors []order.LID) error {
	for i, lid := range anchors {
		for k := range rungs {
			r := rungs[(i+k)%len(rungs)]
			t0 := nowNanos()
			e, err := r.insert(lid)
			t1 := nowNanos()
			r.inserts = append(r.inserts, t1-t0)
			if err != nil {
				return fmt.Errorf("ladder insert before %d: %w", lid, err)
			}
			err = r.del(e)
			r.deletes = append(r.deletes, nowNanos()-t1)
			if err != nil {
				return fmt.Errorf("ladder delete of %v: %w", e, err)
			}
		}
	}
	return nil
}

// readBlocks is the backend rung: raw block reads through the timed
// backend wrapper, below the pager's cache.
func readBlocks(b pager.Backend, ids []pager.BlockID) error {
	if len(ids) == 0 {
		return fmt.Errorf("backend rung: no live blocks were touched")
	}
	buf := make([]byte, b.BlockSize())
	for i := 0; i < ladderBlocks; i++ {
		if err := b.ReadBlock(ids[i%len(ids)], buf); err != nil {
			return fmt.Errorf("backend rung: %w", err)
		}
	}
	return nil
}

// loopback serves a SyncStore on a loopback port with boxserve's
// admission settings.
type loopback struct {
	srv  *serve.Server
	met  *serve.Metrics
	addr string
	done chan error
}

func startServer(ss *core.SyncStore, tr *tracer) (*loopback, error) {
	lb := &loopback{met: serve.NewMetrics(), done: make(chan error, 1)}
	cfg := serve.Config{Store: ss, QueueDepth: 256, BatchMax: 32, Metrics: lb.met}
	if tr != nil {
		cfg.WrapConn = func(c net.Conn) net.Conn { return countedConn{Conn: c, tr: tr, lane: laneServerConn} }
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Stop the batcher NewServer started.
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	lb.srv, lb.addr = srv, l.Addr().String()
	go func() { lb.done <- srv.Serve(l) }()
	return lb, nil
}

// dial connects one client; w and tr may be nil.
func (lb *loopback) dial(w *wireCounter, tr *tracer, lane int) (*serve.Client, error) {
	opts := serve.ClientOptions{Timeout: 30 * time.Second}
	if w != nil {
		opts.Dial = dialer(lb.addr, w, tr, lane)
	}
	return serve.Dial(lb.addr, opts)
}

// stop drains the server and waits for its accept loop to return.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; err == nil {
		err = serr
	}
	return err
}
