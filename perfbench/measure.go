package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"boxes/internal/core"
	"boxes/internal/obs"
	"boxes/internal/pager"
)

// budget bounds a closed loop: by wall time in normal runs, by an exact
// operation count in the self-test (so that counts repeat exactly).
type budget struct {
	until time.Time
	ops   int
}

func newBudget(d time.Duration, ops int) budget {
	if ops > 0 {
		return budget{ops: ops}
	}
	return budget{until: time.Now().Add(d)}
}

// done reports whether a loop that has completed n operations, the last
// ending at now, should stop.
func (b budget) done(n int, now time.Time) bool {
	if b.ops > 0 {
		return n >= b.ops
	}
	return !now.Before(b.until)
}

// part returns the budget for the next share of a run: f of the time
// left, or n operations when the budget counts operations.
func (b budget) part(f float64, n int) budget {
	if b.ops > 0 {
		return budget{ops: max(1, n)}
	}
	return budget{until: time.Now().Add(time.Duration(float64(time.Until(b.until)) * f))}
}

// latencies holds raw per-operation samples in nanoseconds; percentiles
// come from the sorted samples, never from histogram buckets.
type latencies []int64

// pct returns the nearest-rank q-quantile in microseconds (0 when empty).
func (l latencies) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := slices.Clone(l)
	slices.Sort(s)
	rank := int(q*float64(len(s))+0.999999) - 1
	rank = max(0, min(rank, len(s)-1))
	return float64(s[rank]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// meanUS returns the mean in microseconds (0 when empty).
func (l latencies) meanUS() float64 {
	if len(l) == 0 {
		return 0
	}
	var t int64
	for _, v := range l {
		t += v
	}
	return float64(t) / float64(len(l)) / 1e3
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// footprintMB is the memory the process holds once its garbage is
// collected and the freed pages are returned to the OS: the store, its
// caches and the benchmark's sample logs. It is the Go runtime's count of
// memory mapped and not released, not the kernel's resident set: with
// transparent huge pages VmRSS moved by 8 MB of 40 between runs of one
// seed while the runtime's count held within 3%. The peak resident set is
// one GC cycle's overshoot out of the hundreds a run makes, and moved by
// more than 20% between runs of one seed.
func footprintMB() float64 {
	debug.FreeOSMemory()
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(rtUint(s[0])-rtUint(s[1])) / (1 << 20)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// statser is the part of core.Store and core.SyncStore a meter reads.
type statser interface {
	Stats() pager.IOStats
	MetricsRegistry() *obs.Registry
}

// meter is a snapshot of every counter a phase is charged by; the
// difference of two snapshots is the phase's cost.
type meter struct {
	t                   time.Time
	cpu                 time.Duration
	io                  pager.IOStats
	hits                uint64
	misses              uint64
	snap                obs.Snapshot
	ledger              map[string]uint64
	wal                 pager.WALStats
	mallocs, allocBytes uint64
	gcCPU, usedCPU      float64 // the runtime's estimates, idle excluded
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// wboxName is W-BOX's row in the cost ledger.
var wboxName = core.SchemeWBox.String()

// walStatser is implemented by FileBackend (and wrappers embedding it).
type walStatser interface{ WALStats() pager.WALStats }

// takeMeter snapshots s and, when b keeps a WAL, its WAL counters.
func takeMeter(s statser, b pager.Backend) meter {
	reg := s.MetricsRegistry()
	metrics.Read(rtSamples)
	m := meter{
		t:      time.Now(),
		cpu:    cpuTime(),
		io:     s.Stats(),
		hits:   reg.Counter(obs.CtrPagerCacheHits),
		misses: reg.Counter(obs.CtrPagerCacheMisses),
		snap:   reg.Snapshot(),
		ledger: map[string]uint64{},
	}
	if w, ok := b.(walStatser); ok {
		m.wal = w.WALStats()
	}
	for _, c := range reg.LedgerCells() {
		if c.Scheme == wboxName {
			m.ledger[c.Op+"/"+c.Kind] = c.Value
			m.ledger["*/"+c.Kind] += c.Value
		}
	}
	for _, c := range reg.LedgerOpCounts() {
		if c.Scheme == wboxName {
			m.ledger[c.Op+"/ops"] = c.Count
		}
	}
	m.gcCPU = rtFloat(rtSamples[0])
	m.usedCPU = rtFloat(rtSamples[1]) - rtFloat(rtSamples[2])
	m.mallocs = rtUint(rtSamples[3])
	m.allocBytes = rtUint(rtSamples[4])
	return m
}

func rtFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func rtUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// phaseMean returns the mean (µs) of the named phase histograms summed
// over rows, between two registry snapshots. Means come from the exact
// nanosecond sums, not from bucket bounds.
func phaseMean(a, b obs.Snapshot, rows []string, phase string) float64 {
	var sum, n uint64
	for _, row := range rows {
		hb := b.Phases[row][phase]
		ha := a.Phases[row][phase]
		d := hb.Sub(ha)
		sum += d.Sum
		n += d.Total()
	}
	return ratio(float64(sum)/1e3, float64(n))
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// env describes the machine a run measured, printed with every result.
func env(dir string) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s fsync_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))
}

// fsType names the filesystem behind dir, the one every fsync hits.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
