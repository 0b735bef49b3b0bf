package guard

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	if b := NewBudget(0, 0, 0); b != nil {
		t.Fatalf("all-unbounded budget = %v, want nil", b)
	}
	var b *Budget
	if err := b.check("solve", 1<<40, 1<<40); err != nil {
		t.Fatalf("nil budget check: %v", err)
	}
	if b.StepsUsed() != 0 || b.BytesUsed() != 0 {
		t.Fatal("nil budget reports usage")
	}
}

func TestStepBudget(t *testing.T) {
	b := NewBudget(2048, 0, 0)
	ctx := WithBudget(context.Background(), b)
	if err := Tick(ctx, "andersen", 1024); err != nil {
		t.Fatalf("first tick: %v", err)
	}
	if err := Tick(ctx, "andersen", 1024); err != nil {
		t.Fatalf("second tick (at limit): %v", err)
	}
	err := Tick(ctx, "solve", 1024)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("third tick: %v, want *ErrBudgetExceeded", err)
	}
	if be.Phase != "solve" || be.Resource != ResourceSteps || be.Limit != 2048 {
		t.Fatalf("breach = %+v", be)
	}
	if got := b.StepsUsed(); got != 3072 {
		t.Fatalf("StepsUsed = %d, want 3072", got)
	}
}

// TestMemBudget: a Meter charges each byte its total grows by exactly
// once, however the growth falls across polls, charges nothing while
// the total stands still or falls back, and trips the memory limit on
// the poll whose growth passes it.
func TestMemBudget(t *testing.T) {
	b := NewBudget(0, 100, 0)
	ctx := WithBudget(context.Background(), b)
	var m Meter
	for _, poll := range []struct{ total, used int64 }{
		{0, 0}, {10, 10}, {10, 10}, {40, 40}, {25, 40}, {40, 40}, {100, 100},
	} {
		if err := m.Tick(ctx, "solve", 1, poll.total); err != nil {
			t.Fatalf("poll at total %d: %v", poll.total, err)
		}
		if got := b.BytesUsed(); got != poll.used {
			t.Fatalf("after a poll at total %d: BytesUsed = %d, want %d", poll.total, got, poll.used)
		}
	}
	err := m.Tick(ctx, "solve", 1, 101)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceMem || be.Phase != "solve" {
		t.Fatalf("poll past the limit: %v, want mem breach in solve", err)
	}
	if got := b.BytesUsed(); got != 101 {
		t.Fatalf("BytesUsed = %d, want 101", got)
	}
}

// TestTickBytesChargesMemBudget: bytes charged at checkpoints count
// toward the memory limit, and only toward the budget they were
// charged to.
func TestTickBytesChargesMemBudget(t *testing.T) {
	b := NewBudget(0, 1024, 0)
	other := NewBudget(0, 1024, 0)
	ctx := WithBudget(context.Background(), b)
	var m Meter
	if err := m.Tick(ctx, "solve", 1, 1000); err != nil {
		t.Fatalf("charge under the limit: %v", err)
	}
	err := m.Tick(ctx, "solve", 1, 1100)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceMem || be.Phase != "solve" {
		t.Fatalf("charge past the limit: %v, want mem breach in solve", err)
	}
	if b.BytesUsed() != 1100 {
		t.Fatalf("BytesUsed = %d, want 1100", b.BytesUsed())
	}
	if other.BytesUsed() != 0 {
		t.Fatalf("another budget sees the charge: BytesUsed = %d", other.BytesUsed())
	}
}

func TestWallBudget(t *testing.T) {
	b := NewBudget(0, 0, time.Nanosecond)
	ctx := WithBudget(context.Background(), b)
	time.Sleep(time.Millisecond)
	err := Tick(ctx, "memssa", 1)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceWall {
		t.Fatalf("tick past deadline: %v, want wall breach", err)
	}
}

func TestTickHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Tick(ctx, "solve", 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("tick on cancelled ctx: %v", err)
	}
}

func TestRecoverConvertsPanic(t *testing.T) {
	err := Recover(context.Background(), "svfg", "cafebabe", func() error {
		panic("boom")
	})
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PhaseError", err)
	}
	if pe.Phase != "svfg" || pe.ProgramHash != "cafebabe" || pe.Value != "boom" {
		t.Fatalf("PhaseError = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PhaseError carries no stack")
	}
}

func TestRecoverPassesThrough(t *testing.T) {
	want := errors.New("ordinary")
	if err := Recover(context.Background(), "parse", "", func() error { return want }); err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if err := Recover(context.Background(), "parse", "", func() error { return nil }); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
}

func TestFaultPanicAtStep(t *testing.T) {
	plan := NewFaultPlan(Fault{Phase: "solve", Step: 2, Kind: FaultPanic})
	ctx := WithFaults(context.Background(), plan)
	err := Recover(ctx, "solve", "h", func() error {
		for i := 0; i < 10; i++ {
			if err := Tick(ctx, "solve", 1); err != nil {
				return err
			}
		}
		return nil
	})
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PhaseError", err)
	}
	ip, ok := pe.Value.(*InjectedPanic)
	if !ok || ip.Phase != "solve" || ip.Step != 2 {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

func TestFaultOnlyTargetsItsPhase(t *testing.T) {
	plan := NewFaultPlan(Fault{Phase: "solve", Step: 0, Kind: FaultPanic})
	ctx := WithFaults(context.Background(), plan)
	err := Recover(ctx, "andersen", "h", func() error {
		return Tick(ctx, "andersen", 1)
	})
	if err != nil {
		t.Fatalf("fault for phase solve fired in andersen: %v", err)
	}
}

func TestFaultTimesBoundsPhaseEntries(t *testing.T) {
	plan := NewFaultPlan(Fault{Phase: "solve", Step: 0, Kind: FaultPanic, Times: 1})
	ctx := WithFaults(context.Background(), plan)
	run := func() error { return Recover(ctx, "solve", "h", func() error { return nil }) }
	if err := run(); err == nil {
		t.Fatal("first entry did not fault")
	}
	if err := run(); err != nil {
		t.Fatalf("second entry faulted after Times=1: %v", err)
	}
}

func TestFaultSlowBlowsStepBudget(t *testing.T) {
	plan := NewFaultPlan(Fault{Phase: "solve", Step: 1, Kind: FaultSlow})
	b := NewBudget(1<<30, 0, 0)
	ctx := WithBudget(WithFaults(context.Background(), plan), b)
	if err := Tick(ctx, "solve", 1); err != nil {
		t.Fatalf("tick 0: %v", err)
	}
	err := Tick(ctx, "solve", 1)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceSteps {
		t.Fatalf("tick 1 after slow fault: %v, want steps breach", err)
	}
}

func TestFaultAllocSpikeBlowsMemBudget(t *testing.T) {
	plan := NewFaultPlan(Fault{Phase: "memssa", Step: 0, Kind: FaultAllocSpike, Amount: 1 << 20})
	b := NewBudget(0, 1<<10, 0)
	ctx := WithBudget(WithFaults(context.Background(), plan), b)
	err := Tick(ctx, "memssa", 1)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Resource != ResourceMem {
		t.Fatalf("tick after alloc spike: %v, want mem breach", err)
	}
}

func TestSeededPlanIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a, b := SeededPlan(seed).Faults(), SeededPlan(seed).Faults()
		if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
			t.Fatalf("seed %d: plans differ: %+v vs %+v", seed, a, b)
		}
	}
}

func TestHashStable(t *testing.T) {
	a, b := Hash([]byte("x")), Hash([]byte("x"))
	if a != b || len(a) != 16 {
		t.Fatalf("Hash = %q / %q", a, b)
	}
	if Hash([]byte("y")) == a {
		t.Fatal("distinct inputs collide")
	}
}
