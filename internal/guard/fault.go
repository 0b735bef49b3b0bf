package guard

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
)

// FaultKind selects what an injected fault does when it fires.
type FaultKind int

const (
	// FaultPanic panics with an *InjectedPanic value; Recover converts
	// it into a *PhaseError like any organic panic.
	FaultPanic FaultKind = iota
	// FaultSlow charges Amount extra steps to the context's budget,
	// deterministically simulating a pathological slowdown without
	// touching the wall clock.
	FaultSlow
	// FaultAllocSpike charges Amount extra bytes to the context's
	// budget, deterministically simulating a memory blow-up.
	FaultAllocSpike
)

func (k FaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultSlow:
		return "slow"
	case FaultAllocSpike:
		return "alloc-spike"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// defaultFaultAmount is the budget charge of a Slow or AllocSpike fault
// whose Amount is zero: large enough to blow any realistic budget at
// the next check.
const defaultFaultAmount = int64(1) << 40

// Fault is one planned injection: at the Step-th governance checkpoint
// of the named Phase, do Kind.
type Fault struct {
	// Phase is the pipeline phase to fault (parse, andersen, memssa,
	// svfg, solve). Checkpoint 0 of every phase fires at phase entry,
	// so even loop-free phases are injectable.
	Phase string
	// Step is the checkpoint index within the phase at which to fire.
	Step int
	// Kind is what to do.
	Kind FaultKind
	// Amount is the budget charge for Slow/AllocSpike; 0 means "huge".
	Amount int64
	// Times bounds how many phase entries fire this fault; 0 means
	// every one, so each repeat of a faulted program fails alike.
	Times int
}

// InjectedPanic is the value a FaultPanic panics with, so tests and
// logs can tell injected faults from organic bugs.
type InjectedPanic struct {
	Phase string
	Step  int
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("injected panic at %s checkpoint %d", p.Phase, p.Step)
}

// FaultPlan schedules deterministic faults across pipeline phases. It
// counts governance checkpoints per phase — no wall clock, no global
// randomness — so a given (plan, program) pair fails identically on
// every run. A plan is safe for concurrent use, but checkpoint counting
// is per-plan: for exact step targeting run solves serially, or give
// each solve its own plan.
//
// The zero value is an empty plan that never fires.
type FaultPlan struct {
	mu     sync.Mutex
	faults []Fault
	count  map[string]int // checkpoints seen in the current phase entry
	fired  []int          // entries of each fault's phase, for Times
}

// NewFaultPlan returns a plan that injects exactly the given faults.
func NewFaultPlan(faults ...Fault) *FaultPlan {
	return &FaultPlan{faults: faults, count: make(map[string]int), fired: make([]int, len(faults))}
}

// The facade's phase names: its span, guard.Recover and phase-record
// names.
const (
	PhaseParse    = "parse"
	PhaseAndersen = "andersen"
	PhaseMemSSA   = "memssa"
	PhaseSVFG     = "svfg"
	PhaseSolve    = "solve"
	// PhaseRung is the degradation ladder's CFG-free retry. Its own name
	// keeps a breached phase's faults from replaying into the rung's
	// fresh budget and lets a fault plan target the rung. Timing views
	// count it as PhaseSolve, the main phase it stands in for.
	PhaseRung = "cfgfree"
)

// PipelinePhases lists the five facade phases in execution order — the
// namespace Fault.Phase draws from, and the phases every timing view
// (run ledger, /metrics, /stats, vsfs -v) reports.
var PipelinePhases = []string{PhaseParse, PhaseAndersen, PhaseMemSSA, PhaseSVFG, PhaseSolve}

// SeededPlan derives one pseudo-random fault from seed: a phase, an
// early checkpoint, and a kind. Same seed, same plan — the property the
// fuzz harness's -faults mode relies on to reproduce a failure.
func SeededPlan(seed int64) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	f := Fault{
		Phase: PipelinePhases[rng.Intn(len(PipelinePhases))],
		Step:  rng.Intn(4),
		Kind:  FaultKind(rng.Intn(3)),
	}
	return NewFaultPlan(f)
}

// Faults returns a copy of the planned faults.
func (p *FaultPlan) Faults() []Fault {
	if p == nil {
		return nil
	}
	return append([]Fault(nil), p.faults...)
}

// enterPhase resets phase's checkpoint counter; called by Recover at
// phase entry so Step indexes are per-phase-run, not cumulative.
func (p *FaultPlan) enterPhase(phase string) {
	if len(p.faults) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count[phase] = 0
	for i := range p.faults {
		if p.faults[i].Phase == phase {
			p.fired[i]++ // counts phase entries
		}
	}
}

// checkpoint advances phase's counter and fires any due fault. A panic
// fault does not return.
func (p *FaultPlan) checkpoint(ctx context.Context, phase string) {
	if p == nil || len(p.faults) == 0 {
		return
	}
	p.mu.Lock()
	step := p.count[phase]
	p.count[phase] = step + 1
	var due []Fault
	for i, f := range p.faults {
		if f.Phase != phase || f.Step != step {
			continue
		}
		if f.Times > 0 && p.fired[i] > f.Times {
			continue
		}
		due = append(due, f)
	}
	p.mu.Unlock()

	for _, f := range due {
		amount := f.Amount
		if amount == 0 {
			amount = defaultFaultAmount
		}
		switch f.Kind {
		case FaultPanic:
			panic(&InjectedPanic{Phase: phase, Step: step})
		case FaultSlow:
			if b := BudgetFrom(ctx); b != nil {
				b.steps.Add(amount)
			}
		case FaultAllocSpike:
			if b := BudgetFrom(ctx); b != nil {
				b.chargedBytes.Add(amount)
			}
		}
	}
}

type faultKey struct{}

// WithFaults installs a fault plan on the context. Installing nil is a
// no-op.
func WithFaults(ctx context.Context, p *FaultPlan) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, faultKey{}, p)
}

// FaultsFrom returns the context's fault plan, or nil.
func FaultsFrom(ctx context.Context) *FaultPlan {
	p, _ := ctx.Value(faultKey{}).(*FaultPlan)
	return p
}
