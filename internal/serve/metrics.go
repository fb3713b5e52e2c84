package serve

import (
	"sync/atomic"
	"time"

	"boxes/internal/obs"
)

// rpcPhases partition one request's server-side wall time, in the order
// PhaseSnapshot returns them. rpc_queue is the wait in the admission queue
// before the batcher picked the op up, rpc_apply is ApplyBatch including
// the group-commit durability wait (the ack cannot precede it), and
// rpc_respond is the response frame write.
var rpcPhases = [3]obs.Phase{obs.PhaseRPCQueue, obs.PhaseRPCApply, obs.PhaseRPCRespond}

// Metrics aggregates the server's robustness counters. Its per-RPC phase
// latencies are the "rpc_<opcode>" rows of the store registry's
// boxes_phase_duration_seconds family, bound by NewServer. All methods are
// safe for concurrent use and nil-receiver-safe (an unmetered server costs
// only nil checks).
type Metrics struct {
	ConnsAccepted atomic.Uint64
	ConnsActive   atomic.Int64
	Requests      atomic.Uint64
	Shed          atomic.Uint64 // overload rejections
	Deadline      atomic.Uint64 // requests expired while queued
	Drained       atomic.Uint64 // requests rejected while draining
	BadFrames     atomic.Uint64 // CRC/framing violations (conns dropped)
	Sessions      atomic.Int64
	DrainNanos    atomic.Int64 // duration of the last graceful drain

	queueDepth func() int                   // live admission-queue depth, set by the server
	reg        atomic.Pointer[obs.Registry] // the store registry holding the phase rows
}

// NewMetrics returns an empty metrics bundle.
func NewMetrics() *Metrics { return &Metrics{} }

// observePhase records d under one phase of wire opcode op's row.
func (m *Metrics) observePhase(op uint8, ph obs.Phase, d time.Duration) {
	if m == nil {
		return
	}
	m.reg.Load().ObservePhaseRPC(op, ph, d)
}

// PhaseSnapshot returns one opcode's (by OpName) rpc_queue, rpc_apply and
// rpc_respond histograms, or zero snapshots before NewServer bound the
// registry or for an unknown name.
func (m *Metrics) PhaseSnapshot(op string) [3]obs.HistSnapshot {
	var out [3]obs.HistSnapshot
	if m == nil {
		return out
	}
	reg := m.reg.Load()
	for code := OpInsert; code <= OpBatch; code++ {
		if OpName(code) != op {
			continue
		}
		for i, ph := range rpcPhases {
			out[i] = reg.PhaseRPC(code, ph)
		}
	}
	return out
}

// CollectGauges implements obs.Collector: the server's health gauges,
// scraped through the store registry's /metrics endpoint.
func (m *Metrics) CollectGauges() []obs.GaugeValue {
	if m == nil {
		return nil
	}
	gs := []obs.GaugeValue{
		obs.G("serve_conns_accepted", "Connections accepted since start.", float64(m.ConnsAccepted.Load())),
		obs.G("serve_conns_active", "Connections currently open.", float64(m.ConnsActive.Load())),
		obs.G("serve_requests_total", "Requests decoded (all opcodes).", float64(m.Requests.Load())),
		obs.G("serve_shed_total", "Write requests shed with an overload status (queue full).", float64(m.Shed.Load())),
		obs.G("serve_deadline_expired_total", "Write requests whose deadline expired while queued.", float64(m.Deadline.Load())),
		obs.G("serve_drain_rejected_total", "Requests rejected because the server was draining.", float64(m.Drained.Load())),
		obs.G("serve_bad_frames_total", "Frames dropped for CRC or framing violations.", float64(m.BadFrames.Load())),
		obs.G("serve_sessions", "Live sessions in the dedup table.", float64(m.Sessions.Load())),
	}
	if qd := m.queueDepth; qd != nil {
		gs = append(gs, obs.G("serve_queue_depth", "Write requests waiting in the admission queue.", float64(qd())))
	}
	if d := m.DrainNanos.Load(); d > 0 {
		gs = append(gs, obs.G("serve_drain_seconds", "Duration of the last graceful drain.", time.Duration(d).Seconds()))
	}
	return gs
}
