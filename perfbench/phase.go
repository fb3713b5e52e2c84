package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"boxes/internal/pager"
)

// window is the length of the time slices a phase is cut into.
const window = time.Second

// sample is one operation's latency and the time it ended, in ns since
// epoch.
type sample struct{ end, dur int64 }

// phase is one closed-loop measurement: raw samples, the counter
// snapshots that bracket it, and marks at every window boundary.
type phase struct {
	reads, writes []sample
	ops           int
	done          atomic.Int64 // operations completed so far
	m0, m1        meter
	sv0, sv1      serveSnap // served-mixed only
	marks         []mark
	next          time.Time
	footprintMB   float64 // set on the main loop only
}

// mark is the state at a window boundary.
type mark struct {
	at           int64 // ns since epoch
	cpu          time.Duration
	ops          int64
	steal, ticks uint64 // machine-wide, from /proc/stat
}

func takeMark(ops int64) mark {
	steal, ticks := stealTicks()
	return mark{at: nowNanos(), cpu: cpuTime(), ops: ops, steal: steal, ticks: ticks}
}

func newPhase(s statser, b pager.Backend) *phase {
	p := &phase{m0: takeMeter(s, b)}
	p.marks = []mark{takeMark(0)}
	p.next = time.Now().Add(window)
	return p
}

// tick is called by one loop before each operation.
func (p *phase) tick(now time.Time) {
	if now.Before(p.next) {
		return
	}
	p.marks = append(p.marks, takeMark(p.done.Load()))
	p.next = now.Add(window)
}

func (p *phase) finish(s statser, b pager.Backend) {
	p.m1 = takeMeter(s, b)
	p.ops = int(p.done.Load())
	if len(p.marks) < 3 {
		// Shorter than two windows: the whole phase is one window.
		p.marks = []mark{p.marks[0], takeMark(p.done.Load())}
	}
}

// read and write record an operation that started at t0.
func (p *phase) read(t0 int64) {
	t1 := nowNanos()
	p.reads = append(p.reads, sample{t1, t1 - t0})
}

func (p *phase) write(t0 int64) {
	t1 := nowNanos()
	p.writes = append(p.writes, sample{t1, t1 - t0})
}

func (p *phase) wall() time.Duration { return p.m1.t.Sub(p.m0.t) }

func (p *phase) opsPerSec() float64 { return ratio(float64(p.ops), p.wall().Seconds()) }

// stealMax is the share of the machine's CPU ticks the hypervisor may
// steal in a window before the window is dropped.
const stealMax = 0.02

// calm returns the windows (as indices i of [marks[i-1], marks[i])) in
// which the hypervisor stole at most stealMax of the machine's CPU, or
// every window when none qualifies. On a shared machine neighbours come
// and go over minutes and their load shows as steal time. Steal accrues
// only while a vCPU is runnable, so a busier program collects more of it:
// the threshold is fixed, not relative, and drops nothing when the
// machine is quiet.
func (p *phase) calm() []int {
	var all, idx []int
	for i := 1; i < len(p.marks); i++ {
		all = append(all, i)
		a, b := p.marks[i-1], p.marks[i]
		if ratio(float64(b.steal-a.steal), float64(b.ticks-a.ticks)) <= stealMax {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return all
	}
	return idx
}

// rates returns the median over the calm windows of operations per second
// and of CPU µs per operation.
func (p *phase) rates() (opsPerSec, cpuPerOp float64) {
	var tput, cpu []float64
	for _, i := range p.calm() {
		a, b := p.marks[i-1], p.marks[i]
		n := float64(b.ops - a.ops)
		tput = append(tput, ratio(n, float64(b.at-a.at)/1e9))
		cpu = append(cpu, ratio(float64(b.cpu-a.cpu)/1e3, n))
	}
	return median(tput), median(cpu)
}

// calmLatencies returns the durations of the samples that ended in a calm
// window.
func (p *phase) calmLatencies(ss []sample) latencies {
	var out latencies
	k := 0
	for _, i := range p.calm() {
		lo, hi := p.marks[i-1].at, p.marks[i].at
		for ; k < len(ss) && ss[k].end < lo; k++ {
		}
		for ; k < len(ss) && ss[k].end < hi; k++ {
			out = append(out, ss[k].dur)
		}
	}
	return out
}

// stealTicks reads the machine-wide steal and total CPU ticks.
func stealTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0, 0
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
