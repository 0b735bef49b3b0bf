// Package guard is the resource-governance layer of the pipeline: it
// bounds how much a single analysis may cost (worklist steps, the
// storage its phases grow, wall clock), converts panics in any
// pipeline phase into typed, loggable errors instead of process death,
// and provides deterministic fault injection so every one of those
// failure paths can be exercised end-to-end in tests.
//
// The pieces compose through context.Context: WithBudget installs a
// *Budget, WithFaults installs a *FaultPlan, and Tick — called at the
// solvers' existing cancelCheckInterval sites and at the build passes of
// memssa/svfg — polls cancellation, fires due faults, charges the
// budget, and returns a typed error the facade can act on. A phase that
// grows storage keeps a Meter and ticks through it, which charges the
// storage's growth since its last tick, so a budget counts only the
// bytes its own run's phases charged to it. Recover wraps one pipeline
// phase and turns any panic (organic or injected) into a *PhaseError
// carrying the phase name, program hash, and stack.
//
// Budgets exist so a production deployment can bound cost and fall back
// to the cheaper (still sound) auxiliary Andersen result rather than
// fall over — the facade degrades on *ErrBudgetExceeded from any phase
// after Andersen's has completed.
package guard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Resource names the budget dimension that was exhausted.
type Resource string

// The budgeted resources.
const (
	// ResourceSteps is worklist/build iterations across all phases.
	ResourceSteps Resource = "steps"
	// ResourceMem is the bytes of storage the run's phases charged to
	// the budget through their Meters: points-to sets, copy edges,
	// memory SSA, the SVFG's overflow and meld labels.
	ResourceMem Resource = "mem"
	// ResourceWall is elapsed wall clock since the budget was armed.
	ResourceWall Resource = "wall"
)

// ErrBudgetExceeded reports that a phase blew through one dimension of
// its Budget. The facade treats it as the signal to degrade to the
// auxiliary result when one exists; everything else should treat it as
// a retryable resource-exhaustion error, not a correctness failure.
type ErrBudgetExceeded struct {
	// Phase is the pipeline phase that hit the limit (parse, andersen,
	// memssa, svfg, solve).
	Phase string
	// Resource is the exhausted dimension.
	Resource Resource
	// Limit is the configured bound in the resource's unit (steps,
	// bytes, or nanoseconds).
	Limit int64
}

func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("guard: %s budget exceeded in %s phase (limit %d)", e.Resource, e.Phase, e.Limit)
}

// Budget is one analysis run's resource envelope. Create with
// NewBudget, install with WithBudget, and the pipeline's Tick sites
// charge and check it. A nil *Budget is valid everywhere and means
// "unbounded". A Budget must not be reused across runs: the wall
// clock starts at creation, and what a run charges stays charged.
type Budget struct {
	maxSteps int64
	maxBytes int64
	maxWall  time.Duration

	steps        atomic.Int64
	chargedBytes atomic.Int64 // charged by Meter.Tick and FaultAllocSpike
	armedAt      time.Time
}

// NewBudget returns an armed budget. Zero (or negative) limits mean
// that dimension is unbounded; a nil return for an all-unbounded
// request keeps the fully-unlimited path free.
func NewBudget(maxSteps, maxBytes int64, maxWall time.Duration) *Budget {
	if maxSteps <= 0 && maxBytes <= 0 && maxWall <= 0 {
		return nil
	}
	return &Budget{
		maxSteps: maxSteps,
		maxBytes: maxBytes,
		maxWall:  maxWall,
		armedAt:  time.Now(),
	}
}

// Limits returns the configured ceilings (zero = unbounded, matching
// NewBudget's convention). A degradation rung uses it to re-arm a
// fresh budget with the same envelope after the original is exhausted.
func (b *Budget) Limits() (maxSteps, maxBytes int64, maxWall time.Duration) {
	if b == nil {
		return 0, 0, 0
	}
	return b.maxSteps, b.maxBytes, b.maxWall
}

// StepsUsed returns the worklist/build steps charged so far.
func (b *Budget) StepsUsed() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}

// BytesUsed returns the bytes charged to this budget so far. Only the
// phases of the run the budget is installed on charge it, so no other
// solve, concurrent or earlier, changes what it reads.
func (b *Budget) BytesUsed() int64 {
	if b == nil {
		return 0
	}
	return b.chargedBytes.Load()
}

// addSteps charges n steps and reports whether the step limit is now
// exceeded.
func (b *Budget) addSteps(n int64) bool {
	return b.steps.Add(n) > b.maxSteps && b.maxSteps > 0
}

// check charges n steps and bytes against the budget and verifies
// every dimension, attributing any breach to phase.
func (b *Budget) check(phase string, n, bytes int64) error {
	if b == nil {
		return nil
	}
	b.chargedBytes.Add(bytes)
	if b.addSteps(n) {
		return &ErrBudgetExceeded{Phase: phase, Resource: ResourceSteps, Limit: b.maxSteps}
	}
	if b.maxBytes > 0 && b.BytesUsed() > b.maxBytes {
		return &ErrBudgetExceeded{Phase: phase, Resource: ResourceMem, Limit: b.maxBytes}
	}
	if b.maxWall > 0 && time.Since(b.armedAt) > b.maxWall {
		return &ErrBudgetExceeded{Phase: phase, Resource: ResourceWall, Limit: int64(b.maxWall)}
	}
	return nil
}

type budgetKey struct{}

// WithBudget installs b on the context; the pipeline's Tick sites will
// charge and enforce it. Installing nil is a no-op.
func WithBudget(ctx context.Context, b *Budget) context.Context {
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// BudgetFrom returns the context's budget, or nil.
func BudgetFrom(ctx context.Context) *Budget {
	b, _ := ctx.Value(budgetKey{}).(*Budget)
	return b
}

// Tick is the per-checkpoint governance poll, called every
// cancelCheckInterval iterations of each fixpoint loop and between the
// build passes of the memssa/svfg phases. In order it (1) honours
// context cancellation, (2) fires any due injected fault for phase —
// which may panic or charge the budget — and (3) charges n steps
// against the budget and enforces every limit. It returns nil when the
// run may continue.
func Tick(ctx context.Context, phase string, n int64) error {
	return new(Meter).Tick(ctx, phase, n, 0)
}

// Meter is how a phase charges the storage it grows: it remembers the
// bytes it has charged, and each Tick charges only the growth since.
// A phase keeps one per total it meters; the zero value has charged
// nothing.
type Meter struct{ charged int64 }

// Tick is guard.Tick for a phase whose storage now holds total bytes:
// it also charges the budget's memory dimension with what total grew by
// since this meter's last Tick, before enforcing the limits. A total
// below the most the meter has seen charges nothing.
func (m *Meter) Tick(ctx context.Context, phase string, n, total int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p := FaultsFrom(ctx); p != nil {
		p.checkpoint(ctx, phase)
	}
	grown := max(0, total-m.charged)
	m.charged += grown
	if b := BudgetFrom(ctx); b != nil {
		return b.check(phase, n, grown)
	}
	return nil
}

// PhaseError is a pipeline-phase panic converted into a value: the
// worker that hit it survives, the daemon can answer with a structured
// 500, and the log line names the program by its hash.
type PhaseError struct {
	// Phase is the pipeline phase that panicked.
	Phase string
	// ProgramHash identifies the input (Hash of the source), "" when
	// the caller analysed a prebuilt program.
	ProgramHash string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PhaseError) Error() string {
	if e.ProgramHash == "" {
		return fmt.Sprintf("guard: panic in %s phase: %v", e.Phase, e.Value)
	}
	return fmt.Sprintf("guard: panic in %s phase (program %s): %v", e.Phase, e.ProgramHash, e.Value)
}

// Recover runs one pipeline phase with panic isolation: a panic inside
// fn (organic or fault-injected) becomes a *PhaseError instead of
// unwinding the goroutine. It also fires phase-entry faults, so phases
// without an internal Tick loop (parse) are still injectable.
func Recover(ctx context.Context, phase, programHash string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PhaseError{Phase: phase, ProgramHash: programHash, Value: r, Stack: debug.Stack()}
		}
	}()
	if p := FaultsFrom(ctx); p != nil {
		p.enterPhase(phase)
		p.checkpoint(ctx, phase)
	}
	return fn()
}

// Hash returns the short content hash used to identify a program in
// PhaseErrors and logs: the first 16 hex digits
// of the SHA-256 of src.
func Hash(src []byte) string {
	sum := sha256.Sum256(src)
	return hex.EncodeToString(sum[:8])
}
