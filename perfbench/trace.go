package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"boxes/internal/pager"
)

// epoch anchors every timestamp the benchmark takes (monotonic clock).
var epoch = time.Now()

func nowNanos() int64 { return int64(time.Since(epoch)) }

// spanKind names one benchmark-side call boundary into a layer.
type spanKind uint8

const (
	spWboxLookup spanKind = iota
	spWboxInsert
	spWboxDelete
	spStoreLookupSpan
	spStoreLookup
	spStoreCompare
	spStoreInsert
	spStoreDelete
	spSyncLookup
	spSyncInsert
	spSyncDelete
	spClientLookup
	spClientCompare
	spClientInsert
	spClientDelete
	spBackendRead
	spBackendWrite
	spBackendCommit
	spConnRead
	spConnWrite
	numSpanKinds
)

var spanInfo = [numSpanKinds]struct{ name, layer string }{
	spWboxLookup:      {"Labeler.Lookup", "wbox"},
	spWboxInsert:      {"Labeler.InsertElementBefore", "wbox"},
	spWboxDelete:      {"Labeler.Delete", "wbox"},
	spStoreLookupSpan: {"Store.LookupSpan", "core"},
	spStoreLookup:     {"Store.Lookup", "core"},
	spStoreCompare:    {"Store.Compare", "core"},
	spStoreInsert:     {"Store.InsertElementBefore", "core"},
	spStoreDelete:     {"Store.DeleteElement", "core"},
	spSyncLookup:      {"SyncStore.Lookup", "core.sync"},
	spSyncInsert:      {"SyncStore.InsertElementBefore", "core.sync"},
	spSyncDelete:      {"SyncStore.DeleteElement", "core.sync"},
	spClientLookup:    {"Client.Lookup", "serve"},
	spClientCompare:   {"Client.Compare", "serve"},
	spClientInsert:    {"Client.Insert", "serve"},
	spClientDelete:    {"Client.DeleteElement", "serve"},
	spBackendRead:     {"Backend.ReadBlock", "pager"},
	spBackendWrite:    {"Backend.WriteBlock", "pager"},
	spBackendCommit:   {"Backend.CommitBatch", "pager"},
	spConnRead:        {"Conn.Read", "wire"},
	spConnWrite:       {"Conn.Write", "wire"},
}

// Lanes are the trace's threads. Calls made on the benchmark's own
// goroutines nest on that goroutine's lane; calls the server makes on its
// goroutines (backend I/O, the server end of a connection) go to shared
// server lanes, where concurrent calls may overlap.
const (
	laneMain = iota + 1
	laneWriter
	laneServerRead
	laneServerWrite
	laneServerCommit
	laneServerConn
)

var laneNames = map[int]string{
	laneMain:         "bench: main / reader",
	laneWriter:       "bench: writer",
	laneServerRead:   "server: backend reads",
	laneServerWrite:  "server: backend writes",
	laneServerCommit: "server: WAL commits",
	laneServerConn:   "server: connections",
}

type span struct {
	kind  spanKind
	lane  uint8
	start int64 // ns since epoch
	dur   int64
}

// maxSpans caps the spans kept: the last maxSpans recorded, so the trace
// always holds the ladder, which runs last.
const maxSpans = 200_000

// tracer records spans in memory while on; nothing is written until the
// run ends.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span // a ring once full
	total int
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) add(k spanKind, lane int, start, dur int64) {
	s := span{kind: k, lane: uint8(lane), start: start, dur: dur}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.spans[t.total%maxSpans] = s
	}
	t.total++
	t.mu.Unlock()
}

// call times fn as one span of kind k when tracing is on.
func call[T any](t *tracer, k spanKind, lane int, fn func() (T, error)) (T, error) {
	if !t.enabled() {
		return fn()
	}
	t0 := nowNanos()
	v, err := fn()
	t.add(k, lane, t0, nowNanos()-t0)
	return v, err
}

// selfTimes returns each layer's self time in ns: a span's duration minus
// the part covered by spans nested inside it on the same lane.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.dur > b.dur
	})
	self := map[string]int64{}
	var stack []span
	for i, s := range spans {
		if i > 0 && s.lane != spans[i-1].lane {
			stack = stack[:0]
		}
		for len(stack) > 0 && stack[len(stack)-1].start+stack[len(stack)-1].dur <= s.start {
			stack = stack[:len(stack)-1]
		}
		self[spanInfo[s.kind].layer] += s.dur
		if len(stack) > 0 {
			if p := stack[len(stack)-1]; s.start+s.dur <= p.start+p.dur {
				self[spanInfo[p.kind].layer] -= s.dur
			}
		}
		stack = append(stack, s)
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing load.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans)+len(laneNames))
	for lane, name := range laneNames {
		events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: lane, Args: map[string]any{"name": name}})
	}
	for _, s := range t.spans {
		info := spanInfo[s.kind]
		events = append(events, event{Name: info.name, Cat: info.layer, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3, PID: 1, TID: int(s.lane)})
	}
	meta["dropped_spans"] = t.total - len(t.spans)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns", "metadata": meta}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ioTimer times the block I/O a wrapped backend performs and remembers
// recently touched live blocks for the backend rung of the ladder.
//
// On an in-memory store each entry of writes is one WriteBlock. On a
// durable store WriteBlock only stages the image in the open transaction,
// so each entry is one transaction: its WriteBlock time plus its commit,
// from CommitBatch or CommitBatchAsync until the commit is durable and
// applied (the WAL append, the group's wait and sync, the in-place write).
type ioTimer struct {
	tr        *tracer
	readLane  int
	writeLane int
	durable   bool
	reads     latencies
	writes    latencies
	staged    int64 // WriteBlock ns of the open transaction (durable only)
	recent    []pager.BlockID
	freed     map[pager.BlockID]bool
	mu        sync.Mutex
}

func newIOTimer(tr *tracer, readLane, writeLane int, durable bool) *ioTimer {
	return &ioTimer{tr: tr, readLane: readLane, writeLane: writeLane, durable: durable, freed: map[pager.BlockID]bool{}}
}

func (m *ioTimer) done(write bool, id pager.BlockID, t0 int64, err error) {
	d := nowNanos() - t0
	m.mu.Lock()
	switch {
	case !write:
		m.reads = append(m.reads, d)
	case m.durable:
		m.staged += d
		delete(m.freed, id)
	default:
		m.writes = append(m.writes, d)
		delete(m.freed, id)
	}
	if err == nil && len(m.recent) < 4096 {
		m.recent = append(m.recent, id)
	} else if err == nil {
		m.recent[int(uint64(t0)%4096)] = id
	}
	m.mu.Unlock()
	if write {
		m.tr.add(spBackendWrite, m.writeLane, t0, d)
	} else {
		m.tr.add(spBackendRead, m.readLane, t0, d)
	}
}

// takeStaged returns and clears the open transaction's WriteBlock time.
func (m *ioTimer) takeStaged() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.staged
	m.staged = 0
	return st
}

// committed charges one transaction whose commit started at t0 and has
// just become durable.
func (m *ioTimer) committed(t0, staged int64) {
	d := nowNanos() - t0
	m.mu.Lock()
	m.writes = append(m.writes, staged+d)
	m.mu.Unlock()
	m.tr.add(spBackendCommit, laneServerCommit, t0, d)
}

func (m *ioTimer) free(id pager.BlockID) {
	m.mu.Lock()
	m.freed[id] = true
	m.mu.Unlock()
}

// liveRecent returns recently touched blocks not freed since.
func (m *ioTimer) liveRecent() []pager.BlockID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []pager.BlockID
	for _, id := range m.recent {
		if !m.freed[id] {
			out = append(out, id)
		}
	}
	return out
}

// memBackend and fileBackend time ReadBlock and WriteBlock of the backend
// they embed, and fileBackend its commits. Embedding the concrete type keeps every other interface it
// implements (metadata root; for FileBackend the WAL transactions and
// group commit), which core discovers by type assertion.
type memBackend struct {
	*pager.MemBackend
	io *ioTimer
}

func (b memBackend) ReadBlock(id pager.BlockID, buf []byte) error {
	if !b.io.tr.enabled() {
		return b.MemBackend.ReadBlock(id, buf)
	}
	t0 := nowNanos()
	err := b.MemBackend.ReadBlock(id, buf)
	b.io.done(false, id, t0, err)
	return err
}

func (b memBackend) WriteBlock(id pager.BlockID, buf []byte) error {
	if !b.io.tr.enabled() {
		return b.MemBackend.WriteBlock(id, buf)
	}
	t0 := nowNanos()
	err := b.MemBackend.WriteBlock(id, buf)
	b.io.done(true, id, t0, err)
	return err
}

func (b memBackend) Free(id pager.BlockID) error {
	b.io.free(id)
	return b.MemBackend.Free(id)
}

type fileBackend struct {
	*pager.FileBackend
	io *ioTimer
}

func (b fileBackend) ReadBlock(id pager.BlockID, buf []byte) error {
	if !b.io.tr.enabled() {
		return b.FileBackend.ReadBlock(id, buf)
	}
	t0 := nowNanos()
	err := b.FileBackend.ReadBlock(id, buf)
	b.io.done(false, id, t0, err)
	return err
}

func (b fileBackend) WriteBlock(id pager.BlockID, buf []byte) error {
	if !b.io.tr.enabled() {
		return b.FileBackend.WriteBlock(id, buf)
	}
	t0 := nowNanos()
	err := b.FileBackend.WriteBlock(id, buf)
	b.io.done(true, id, t0, err)
	return err
}

func (b fileBackend) CommitBatch() error {
	if !b.io.tr.enabled() {
		return b.FileBackend.CommitBatch()
	}
	staged, t0 := b.io.takeStaged(), nowNanos()
	err := b.FileBackend.CommitBatch()
	b.io.committed(t0, staged)
	return err
}

// CommitBatchAsync times the commit until its ticket resolves, which the
// group committer does on its own goroutine after the caller returns.
func (b fileBackend) CommitBatchAsync() (*pager.CommitTicket, error) {
	if !b.io.tr.enabled() {
		return b.FileBackend.CommitBatchAsync()
	}
	staged, t0 := b.io.takeStaged(), nowNanos()
	t, err := b.FileBackend.CommitBatchAsync()
	if err != nil || t == nil {
		b.io.committed(t0, staged)
		return t, err
	}
	go func() {
		<-t.Done()
		b.io.committed(t0, staged)
	}()
	return t, nil
}

func (b fileBackend) AbortBatch() {
	b.io.takeStaged()
	b.FileBackend.AbortBatch()
}

func (b fileBackend) Free(id pager.BlockID) error {
	b.io.free(id)
	return b.FileBackend.Free(id)
}

// wireCounter counts the bytes and write calls crossing the client ends
// of the benchmark's connections.
type wireCounter struct {
	bytes  atomic.Int64
	writes atomic.Int64 // one per frame: the protocol writes each frame at once
	dials  atomic.Int64
}

// countedConn wraps a connection, counting its traffic into w (when
// non-nil) and recording Write spans, and Read spans when traceReads, on
// lane while tracing. A server's reads wait for the next request, so
// their spans would only show idle time.
type countedConn struct {
	net.Conn
	w          *wireCounter
	tr         *tracer
	lane       int
	traceReads bool
}

func (c countedConn) Read(p []byte) (int, error) {
	t0 := nowNanos()
	n, err := c.Conn.Read(p)
	if c.traceReads {
		c.note(spConnRead, t0, n)
	} else if c.w != nil {
		c.w.bytes.Add(int64(n))
	}
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	t0 := nowNanos()
	n, err := c.Conn.Write(p)
	c.note(spConnWrite, t0, n)
	if c.w != nil {
		c.w.writes.Add(1)
	}
	return n, err
}

func (c countedConn) note(k spanKind, t0 int64, n int) {
	if c.w != nil {
		c.w.bytes.Add(int64(n))
	}
	if c.tr.enabled() {
		c.tr.add(k, c.lane, t0, nowNanos()-t0)
	}
}

// dialer returns a ClientOptions.Dial that counts into w.
func dialer(addr string, w *wireCounter, tr *tracer, lane int) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		w.dials.Add(1)
		return countedConn{Conn: conn, w: w, tr: tr, lane: lane, traceReads: true}, nil
	}
}

func describeSelf(self map[string]int64) string {
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	s := ""
	for _, l := range layers {
		s += fmt.Sprintf(" %s=%.1f", l, float64(self[l])/1e6)
	}
	return s
}
