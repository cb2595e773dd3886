package engine

import (
	"time"

	"flowcheck/internal/flowgraph"
	"flowcheck/internal/maxflow"
	"flowcheck/internal/merge"
)

// SolveJoint merges per-run graphs in order (§3.2's location-keyed
// survivor merge) and solves the joint bound — the batch bound, factored
// out so every merge site (in-process AnalyzeBatch, the fleet
// coordinator's distributed batch) computes it with the same code and
// therefore the same bits. Callers pass the surviving runs' graphs —
// trapped and failed runs already excluded — in run order: exact graphs
// merge side by side, collapsed ones by key. The merge is deterministic
// in the graph order, so any two callers that
// present the same graphs in the same order get bit-identical results
// regardless of where the runs executed.
//
// solverWork bounds the joint solve (0 = unlimited); on exhaustion the
// bound degrades soundly to the merged graph's trivial cut with
// Rung = RungTrivial, exactly as a budgeted single run would. The Result
// carries the merged Graph, the bound and its tainting baseline, and
// Stages.Merge and Stages.Solve; execution facts (Output, Steps, Trap,
// per-run summaries) are the caller's to fill in.
func SolveJoint(graphs []*flowgraph.Graph, solverWork int64) *Result {
	t0 := time.Now()
	joint := merge.Graphs(graphs...)
	t1 := time.Now()
	var csr flowgraph.CSR
	joint.BuildCSR(&csr)
	res := solveBound(maxflow.NewSolver(), joint, &csr, nil, solverWork, false)
	res.TaintedOutputBits = taintedOutputBits(joint)
	res.Stages = StageStats{Merge: t1.Sub(t0), Solve: time.Since(t1)}
	return res
}
