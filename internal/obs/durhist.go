package obs

import "time"

// DurHist is a standalone fixed-bucket duration histogram for latencies
// measured where no Registry exists: its one caller is the serve load
// generator's client-side round-trip latency (internal/serve/loadgen.go).
// Server-side latencies are phase rows of a Registry instead. It shares
// the exponential nanosecond bounds (1.024µs .. ~1.07s) and lock-free
// atomic buckets of the per-op latency histograms, so its snapshots
// interoperate with HistSnapshot's Quantile/Sub machinery. The zero value
// is NOT usable; call NewDurHist.
type DurHist struct {
	h hist
}

// NewDurHist returns an empty duration histogram.
func NewDurHist() *DurHist {
	return &DurHist{h: hist{bounds: latencyBounds}}
}

// Observe records one duration. Negative durations clamp to zero. Safe
// for concurrent use; nil-receiver-safe.
func (d *DurHist) Observe(dur time.Duration) {
	if d == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	d.h.observe(uint64(dur))
}

// Snapshot copies the current bucket counts (nanosecond bounds).
func (d *DurHist) Snapshot() HistSnapshot {
	if d == nil {
		return HistSnapshot{}
	}
	return snapHist(&d.h)
}
