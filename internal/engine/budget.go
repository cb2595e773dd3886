package engine

import (
	"context"
	"fmt"
	"time"

	"flowcheck/internal/fault"
	"flowcheck/internal/flowgraph"
	"flowcheck/internal/taint"
	"flowcheck/internal/vm"
)

// Budget bounds the resources one analysis run may consume. Zero fields
// are unlimited, so the zero value preserves the unbudgeted behavior.
//
// Graph and output caps fail the run with a BudgetError (matching
// ErrBudget): past the cap there is no sound partial answer to salvage.
// SolverWork instead degrades gracefully: an exhausted solve falls back to
// the trivial-cut upper bound (Result.Degraded), because the graph itself
// is complete and any s-t cut over it is still a sound — just looser —
// bound.
type Budget struct {
	// MaxGraphNodes and MaxGraphEdges cap the flow graph under
	// construction, polled during execution (where exact-mode graphs grow
	// with run time) and checked again after Build.
	MaxGraphNodes int
	MaxGraphEdges int

	// MaxOutputBytes caps the guest's public output.
	MaxOutputBytes int

	// SolverWork bounds the whole Solve stage (maxflow.Solver.Solve) in
	// work units: one per graph edge for the layout, plus one per arc
	// examination on the series–parallel-reduced network. Exceeding it
	// does not fail the run: the result degrades to the trivial-cut bound.
	SolverWork int64
}

// active reports whether any execution-time budget is set.
func (b Budget) active() bool {
	return b.MaxGraphNodes > 0 || b.MaxGraphEdges > 0 || b.MaxOutputBytes > 0
}

// checkOutput enforces the output-byte cap. It runs both mid-execution
// (via the check hook) and after the run completes: a guest that finishes
// inside one poll interval would otherwise never be checked.
func (b Budget) checkOutput(n int) error {
	if b.MaxOutputBytes > 0 && n > b.MaxOutputBytes {
		return &BudgetError{Resource: "output-bytes", Limit: int64(b.MaxOutputBytes), Used: int64(n)}
	}
	return nil
}

// checkGraph enforces the graph caps on a built graph.
func (b Budget) checkGraph(g *flowgraph.Graph) error {
	if b.MaxGraphNodes > 0 && g.NumNodes() > b.MaxGraphNodes {
		return &BudgetError{Resource: "graph-nodes", Limit: int64(b.MaxGraphNodes), Used: int64(g.NumNodes())}
	}
	if b.MaxGraphEdges > 0 && g.NumEdges() > b.MaxGraphEdges {
		return &BudgetError{Resource: "graph-edges", Limit: int64(b.MaxGraphEdges), Used: int64(g.NumEdges())}
	}
	return nil
}

// ctxErr polls ctx without blocking, wrapping its error as a CancelError.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return &CancelError{Cause: ctx.Err()}
	default:
		return nil
	}
}

// checkHook builds the vm.Machine.Check function for one run, or nil when
// nothing needs polling. The hook is the single mid-execution failure
// seam: injected faults, cancellation, and execution-time budgets all
// surface through it.
func (a *Analyzer) checkHook(ctx context.Context, tr *taint.Tracker, inj fault.Injection) func(*vm.Machine) error {
	b := a.cfg.Budget
	cancelable := ctx != nil && ctx.Done() != nil
	if !cancelable && !b.active() && !inj.Active() {
		return nil
	}
	stalled := false
	return func(m *vm.Machine) error {
		if inj.TrapAtStep != 0 && m.Steps >= inj.TrapAtStep {
			return &vm.Trap{PC: m.PC, Msg: fmt.Sprintf("injected fault at step %d", m.Steps)}
		}
		// An injected stall pauses once, then lets the run continue; the
		// cancellation poll below runs right after, so a deadline that
		// passed during the stall aborts at the earliest sound point.
		if inj.StallAtStep != 0 && !stalled && m.Steps >= inj.StallAtStep {
			stalled = true
			time.Sleep(inj.StallFor)
		}
		if inj.ExhaustResource != "" {
			return &BudgetError{Resource: inj.ExhaustResource}
		}
		if err := ctxErr(ctx); err != nil {
			return err
		}
		if err := b.checkOutput(len(m.Output)); err != nil {
			return err
		}
		if b.MaxGraphNodes > 0 || b.MaxGraphEdges > 0 {
			nodes, edges := tr.GraphSize()
			if b.MaxGraphNodes > 0 && nodes > b.MaxGraphNodes {
				return &BudgetError{Resource: "graph-nodes", Limit: int64(b.MaxGraphNodes), Used: int64(nodes)}
			}
			if b.MaxGraphEdges > 0 && edges > b.MaxGraphEdges {
				return &BudgetError{Resource: "graph-edges", Limit: int64(b.MaxGraphEdges), Used: int64(edges)}
			}
		}
		return nil
	}
}
