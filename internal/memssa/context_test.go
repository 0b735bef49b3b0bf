package memssa

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vsfs/internal/andersen"
	"vsfs/internal/guard"
	"vsfs/internal/irparse"
)

const ctxFixture = `
func main() {
entry:
  p = alloc a 0
  x = alloc b 0
  store p, x
  y = load p
  ret
}
`

func TestBuildContextCancelled(t *testing.T) {
	prog, err := irparse.Parse(ctxFixture)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	aux := andersen.Analyze(prog)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := BuildContext(ctx, prog, aux)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildContext on cancelled ctx: res=%v err=%v, want context.Canceled", res, err)
	}
}

func TestBuildContextMatchesBuild(t *testing.T) {
	parse := func() (*Result, error) {
		prog, err := irparse.Parse(ctxFixture)
		if err != nil {
			return nil, err
		}
		aux := andersen.Analyze(prog)
		return BuildContext(context.Background(), prog, aux)
	}
	a, err := parse()
	if err != nil {
		t.Fatalf("BuildContext: %v", err)
	}
	b, err := parse()
	if err != nil {
		t.Fatalf("BuildContext: %v", err)
	}
	ea, eb := edges(t, a), edges(t, b)
	if len(ea) == 0 || len(ea) != len(eb) {
		t.Fatalf("edge counts differ or empty: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// TestLinkingPolls: linking def-use chains polls ctx every
// cancelCheckInterval chains, so one huge function stays interruptible
// and a steps budget pays a step per chain.
func TestLinkingPolls(t *testing.T) {
	var src strings.Builder
	src.WriteString("func main() {\nentry:\n  p = alloc a 0\n  x = alloc b 0\n  store p, x\n")
	for i := range 2100 {
		fmt.Fprintf(&src, "  v%d = load p\n", i)
	}
	src.WriteString("  ret\n}\n")
	build := func(ctx context.Context) (res *Result, fired any) {
		prog, err := irparse.Parse(src.String())
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		aux := andersen.Analyze(prog)
		defer func() { fired = recover() }()
		res, err = BuildContext(ctx, prog, aux)
		if err != nil {
			t.Fatalf("BuildContext: %v", err)
		}
		return res, nil
	}

	budget := guard.NewBudget(1<<40, 0, 0)
	res, _ := build(guard.WithBudget(context.Background(), budget))
	chains := len(edges(t, res))
	if chains <= 2*cancelCheckInterval {
		t.Fatalf("%d chains; the fixture needs more than %d", chains, 2*cancelCheckInterval)
	}
	if floor := int64(chains / cancelCheckInterval * cancelCheckInterval); budget.StepsUsed() < floor {
		t.Errorf("%d steps charged for %d chains, want at least %d", budget.StepsUsed(), chains, floor)
	}

	// BuildContext polls before each of its eight passes and once per
	// function in rename: checkpoints 0–8 on one function. Checkpoint 9
	// exists only because linking polls too; here it is the second such
	// poll.
	plan := guard.NewFaultPlan(guard.Fault{Phase: "memssa", Step: 9, Kind: guard.FaultPanic})
	_, fired := build(guard.WithFaults(context.Background(), plan))
	if p, ok := fired.(*guard.InjectedPanic); !ok || p.Phase != "memssa" || p.Step != 9 {
		t.Fatalf("recovered %v, want the injected panic at memssa checkpoint 9", fired)
	}
}
