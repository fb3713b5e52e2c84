package pager

import (
	"errors"
	"testing"
	"time"

	"boxes/internal/faults"
	"boxes/internal/obs"
)

func testRetryPolicy() faults.RetryPolicy {
	return faults.RetryPolicy{
		MaxAttempts:    4,
		InitialBackoff: time.Microsecond,
		MaxBackoff:     10 * time.Microsecond,
		Multiplier:     2,
		Seed:           1,
		Sleep:          func(time.Duration) {},
	}
}

// A store with retries absorbs every-k-th transient write faults without
// surfacing a single error.
func TestRetryAbsorbsEveryKthTransientFault(t *testing.T) {
	sched := faults.NewSchedule(3)
	sched.FailEveryKth(3, faults.ModeTransient, faults.OpWrite)
	fb := NewFaultBackend(NewMemBackend(512), sched)
	reg := obs.NewRegistry()
	st := NewStore(fb, WithRetry(testRetryPolicy()), WithObserver(reg))

	var ids []BlockID
	for i := 0; i < 20; i++ {
		id, err := st.Allocate()
		if err != nil {
			t.Fatalf("allocate %d: %v", i, err)
		}
		buf := make([]byte, 512)
		buf[0] = byte(i)
		if err := st.Write(id, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		data, err := st.Read(id)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if data[0] != byte(i) {
			t.Fatalf("block %d holds %d, want %d", id, data[0], i)
		}
	}
	if sched.Injected() == 0 {
		t.Fatalf("schedule injected nothing; the test exercised no faults")
	}
	if got := reg.Counter(obs.CtrPagerRetries); got == 0 {
		t.Fatalf("pager_retries_total = 0, want > 0")
	}
	if got := reg.Counter(obs.CtrPagerRetrySuccesses); got == 0 {
		t.Fatalf("pager_retry_successes_total = 0, want > 0")
	}
	if st.WriteFault() != nil {
		t.Fatalf("absorbed transients latched a write fault: %v", st.WriteFault())
	}
}

// A transient burst longer than the attempt budget exhausts the retries:
// the error surfaces as a permanent ExhaustedError wrapping ErrInjected,
// and the write-fault latch trips.
func TestRetryExhaustionLatchesWriteFault(t *testing.T) {
	sched := faults.NewSchedule(1)
	reg := obs.NewRegistry()
	st := NewStore(NewFaultBackend(NewMemBackend(512), sched), WithRetry(testRetryPolicy()), WithObserver(reg))

	id, err := st.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	sched.ArmFailNext(100) // far beyond MaxAttempts
	err = st.Write(id, make([]byte, 512))
	if err == nil {
		t.Fatalf("write should have exhausted its retries")
	}
	var ex *faults.ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want ExhaustedError", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("exhausted error should wrap the injected cause, got %v", err)
	}
	if faults.Classify(err) != faults.Permanent {
		t.Fatalf("exhausted retries must classify permanent")
	}
	if st.WriteFault() == nil {
		t.Fatalf("exhausted write retries must latch the write fault")
	}
	if got := reg.Counter(obs.CtrPagerRetryExhausted); got != 1 {
		t.Fatalf("pager_retry_exhausted_total = %d, want 1", got)
	}

	// The device heals (burst drained by the retries themselves plus
	// subsequent ops): new writes succeed, but the latch stays until
	// explicitly cleared.
	sched.ArmFailNext(0)
	if err := st.Write(id, make([]byte, 512)); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if st.WriteFault() == nil {
		t.Fatalf("write fault latch must be sticky")
	}
	st.ClearWriteFault()
	if st.WriteFault() != nil {
		t.Fatalf("ClearWriteFault did not clear")
	}
}

// Reads of a quarantined block fail fast with a typed corruption error;
// a successful rewrite lifts the quarantine.
func TestQuarantineFastFailAndLift(t *testing.T) {
	st := NewMemStore(512)
	id, err := st.Allocate()
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	if err := st.Write(id, make([]byte, 512)); err != nil {
		t.Fatalf("write: %v", err)
	}
	st.Quarantine(id, errors.New("checksum mismatch"))
	if got := st.QuarantinedBlocks(); len(got) != 1 || got[0] != id {
		t.Fatalf("QuarantinedBlocks = %v", got)
	}
	_, err = st.Read(id)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read of quarantined block: %v, want ErrCorrupt", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Block != id {
		t.Fatalf("corrupt error should carry the block id, got %v", err)
	}
	if err := st.Write(id, make([]byte, 512)); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got := st.QuarantinedBlocks(); len(got) != 0 {
		t.Fatalf("rewrite should lift the quarantine, still have %v", got)
	}
	if _, err := st.Read(id); err != nil {
		t.Fatalf("read after lift: %v", err)
	}
}
