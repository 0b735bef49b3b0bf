package core

import (
	"context"

	"vsfs/internal/guard"
)

func drainBad(ctx context.Context, q []int) {
	for len(q) > 0 { // want "unbounded loop never reaches guard.Tick"
		q = q[1:]
	}
}

func drainTicked(ctx context.Context, q []int) error {
	for len(q) > 0 {
		if err := guard.Tick(ctx, "solve", 0); err != nil {
			return err
		}
		q = q[1:]
	}
	return nil
}

// drainMetered ticks through a guard.Meter, which charges the
// storage the loop grows: a checkpoint like guard.Tick.
func drainMetered(ctx context.Context, q []int) error {
	var m guard.Meter
	for len(q) > 0 {
		if err := m.Tick(ctx, "solve", 0, int64(len(q))); err != nil {
			return err
		}
		q = q[1:]
	}
	return nil
}

// tick is a method of this package named Tick: not a checkpoint.
type meter struct{}

func (meter) Tick(ctx context.Context) error { return nil }

func drainLocalTick(ctx context.Context, q []int) {
	var m meter
	for len(q) > 0 { // want "unbounded loop never reaches guard.Tick"
		_ = m.Tick(ctx)
		q = q[1:]
	}
}

// drainViaHelper ticks one call away; drainTwoLevels two calls away —
// the fixpoint must see both.
func drainViaHelper(ctx context.Context, q []int) {
	for len(q) > 0 {
		checkpoint(ctx)
		q = q[1:]
	}
}

func drainTwoLevels(ctx context.Context, q []int) {
	for len(q) > 0 {
		poll(ctx)
		q = q[1:]
	}
}

func poll(ctx context.Context) { checkpoint(ctx) }

func checkpoint(ctx context.Context) { _ = guard.Tick(ctx, "solve", 0) }

// counted is the classic three-clause form: bounded, no tick needed.
func counted(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += i
	}
	return total
}

// overRange is bounded by its data.
func overRange(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// spin does no meterable work: control flow only.
func spin() {
	for {
		break
	}
}

type engine struct{ q []int }

func (e *engine) run(ctx context.Context) {
	for len(e.q) > 0 {
		e.tickOnce(ctx)
		e.q = e.q[1:]
	}
}

func (e *engine) tickOnce(ctx context.Context) { _ = guard.Tick(ctx, "solve", 0) }

func suppressedDrain(q []int) {
	//vsfs:lint-ignore guardtick bounded by the caller's snapshot length
	for len(q) > 0 {
		q = q[1:]
	}
}
