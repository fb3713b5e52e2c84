// Flight recorder: a ring that retains the most recent operations
// and, the moment an operation fails, dumps them — together with a full
// metrics snapshot and the structural health gauges — to a JSON crash file
// for post-mortem analysis (boxinspect -crash pretty-prints one).
//
// The recorder exists because the failures that matter here are
// *structural*: an injected I/O fault or invariant violation surfaces as
// one failed operation, but the explanation lives in the events leading up
// to it (a rebuild storm, a split cascade, an exhausted gap) and in the
// shape of the structure at the instant of failure. The dump freezes both.
package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"boxes/internal/faults"
)

// EventRecord is one event in the flight recorder's ring and in a crash
// dump: an operation start marker, or a completed operation.
type EventRecord struct {
	Start    bool      `json:"start,omitempty"` // an op-start marker (no timing)
	Scheme   string    `json:"scheme"`
	Op       string    `json:"op"`
	Began    time.Time `json:"began,omitempty"`
	Duration int64     `json:"duration_ns,omitempty"`
	Reads    uint64    `json:"reads,omitempty"`
	Writes   uint64    `json:"writes,omitempty"`
	Error    string    `json:"error,omitempty"`
	// ErrorClass is the faults classification of Error ("transient" or
	// "permanent"), so degraded-mode entries are distinguishable post-mortem.
	ErrorClass string `json:"error_class,omitempty"`
}

// setErr records a failure and its classification.
func (e *EventRecord) setErr(err error) {
	e.Error = err.Error()
	e.ErrorClass = faults.Classify(err).String()
}

// CrashDump is the on-disk schema of one flight-recorder dump.
type CrashDump struct {
	Version int           `json:"version"`
	Time    time.Time     `json:"time"`
	Trigger EventRecord   `json:"trigger"`        // the operation that failed
	Tags    StringMap     `json:"tags,omitempty"` // caller-supplied context (crash point, stage, ...)
	Events  []EventRecord `json:"recent_events"`  // ring contents, oldest first
	Metrics Snapshot      `json:"metrics"`        // full registry snapshot
	Gauges  []GaugeValue  `json:"gauges"`         // structural health at dump time
	// SlowOps carries the span trees of recent slow operations when the
	// registry's tracer captured any (additive; absent in older dumps).
	SlowOps []SlowOp `json:"slow_ops,omitempty"`
}

// StringMap is a plain string-to-string map; the alias keeps the CrashDump
// schema self-describing.
type StringMap = map[string]string

// crashDumpVersion is bumped whenever the CrashDump schema changes shape.
const crashDumpVersion = 1

// Flight recorder sizes: the ring keeps the last flightRing events, and a
// recorder writes at most flightDumps crash files, so a persistent fault
// (e.g. a dead disk) cannot flood the directory.
const (
	flightRing  = 64
	flightDumps = 8
)

// FlightRecorder keeps the last operation events of a registry in a ring
// and dumps a crash file on every operation error. A registry holds at
// most one (InstallFlightRecorder; core.Options.CrashDir installs it for
// stores), fed by Registry.Begin and End.
//
// Gauge collection at dump time runs the registry's registered collectors;
// they walk structures that may be mid-failure, so collectors tolerate
// errors and the dump records whatever could be gathered.
type FlightRecorder struct {
	reg *Registry
	dir string

	mu      sync.Mutex
	ring    [flightRing]EventRecord
	next    int
	wrapped bool
	dumps   int
	last    string
	err     error
}

// InstallFlightRecorder returns the registry's flight recorder, first
// installing one that writes crash files into dir (created on first dump)
// when the registry has none. Stores reopened on a shared registry thus
// keep one ring and one dump cap; the first installer's dir wins.
func (r *Registry) InstallFlightRecorder(dir string) *FlightRecorder {
	if r == nil {
		return nil
	}
	r.flight.CompareAndSwap(nil, &FlightRecorder{reg: r, dir: dir})
	return r.flight.Load()
}

// Dumps reports how many crash files have been written.
func (f *FlightRecorder) Dumps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// LastDump returns the path of the most recent crash file ("" if none).
func (f *FlightRecorder) LastDump() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// Err returns the first error encountered while writing a dump, if any.
func (f *FlightRecorder) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// push appends one event to the ring.
func (f *FlightRecorder) push(e EventRecord) {
	f.mu.Lock()
	f.ring[f.next] = e
	f.next++
	if f.next == flightRing {
		f.next, f.wrapped = 0, true
	}
	f.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []EventRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.wrapped {
		return append([]EventRecord(nil), f.ring[:f.next]...)
	}
	return append(append([]EventRecord(nil), f.ring[f.next:]...), f.ring[:f.next]...)
}

// opEnd records a completed operation; a failed one also writes a crash
// dump on the spot, on the operation's own goroutine, so the structure is
// not mutating underneath the gauge walk.
func (f *FlightRecorder) opEnd(e EventRecord, err error) {
	if err != nil {
		e.setErr(err)
	}
	f.push(e)
	if err != nil {
		f.dump(e, nil)
	}
}

// DumpFailure writes a crash dump for a failure that is not a traced
// operation — a WAL recovery that errored at open, an fsck run that found
// problems, a crash-matrix reopen that did not come back clean. The stage
// names the phase ("recovery", "fsck", ...), err is the failure, and tags
// carry whatever context makes the dump actionable (crash point, torn
// flag, scheme, store path). Dumps count against the same limit as
// operation-failure dumps.
func (f *FlightRecorder) DumpFailure(stage string, err error, tags map[string]string) {
	if err == nil {
		return
	}
	e := EventRecord{Scheme: stage, Op: OpCheck.String()}
	e.setErr(err)
	f.dump(e, tags)
}

func (f *FlightRecorder) dump(trigger EventRecord, tags map[string]string) {
	f.mu.Lock()
	if f.dumps >= flightDumps {
		f.mu.Unlock()
		return
	}
	f.dumps++
	seq := f.dumps
	f.mu.Unlock()

	events := f.Events()
	snap := f.reg.Snapshot() // includes one gauge collection
	d := CrashDump{
		Version: crashDumpVersion,
		Time:    time.Now(),
		Trigger: trigger,
		Tags:    tags,
		Events:  events,
		Metrics: snap,
		Gauges:  snap.Gauges,
		SlowOps: f.reg.Tracer().SlowOps(),
	}
	name := fmt.Sprintf("crash-%s-%s-%d-%d.json", sanitize(trigger.Scheme), trigger.Op, time.Now().UnixNano(), seq)
	path := filepath.Join(f.dir, name)
	if err := writeCrashDump(path, d); err != nil {
		f.mu.Lock()
		if f.err == nil {
			f.err = err
		}
		f.mu.Unlock()
		return
	}
	f.mu.Lock()
	f.last = path
	f.mu.Unlock()
}

// sanitize keeps scheme names filesystem-safe.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "unknown"
	}
	return string(out)
}

func writeCrashDump(path string, d CrashDump) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadCrashDump parses a crash file written by a FlightRecorder.
func ReadCrashDump(path string) (*CrashDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d CrashDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("obs: crash dump %s: %w", path, err)
	}
	if d.Version != crashDumpVersion {
		return nil, fmt.Errorf("obs: crash dump %s: unsupported version %d", path, d.Version)
	}
	return &d, nil
}
