package experiments

import (
	"time"

	"flowcheck/internal/engine"
	"flowcheck/internal/guest"
)

// StaticRow is one guest's static-pass measurement: the size of the
// analysis (CFG blocks, branches, inferred regions, enclosure spans),
// the cross-check verdict against a run on the guest's sample inputs,
// and how long the pass took.
type StaticRow struct {
	Guest      string
	Funcs      int
	Blocks     int
	Branches   int
	Regions    int
	Enclosures int
	Findings   int // cross-check violations (0 = annotations validated)
	Elapsed    time.Duration
}

// StaticPass runs the static pre-pass plus dynamic cross-check over
// every guest program, on its sample inputs.
func StaticPass() []StaticRow {
	var rows []StaticRow
	for _, name := range guest.Names() {
		secret, public, ok := guest.SampleInputs(name)
		if !ok {
			continue
		}
		res := mustAnalyze(name, engine.Inputs{Secret: secret, Public: public},
			engine.Config{Lint: true})
		st := res.StaticStats
		rows = append(rows, StaticRow{
			Guest:      name,
			Funcs:      st.Funcs,
			Blocks:     st.Blocks,
			Branches:   st.Branches,
			Regions:    st.Regions,
			Enclosures: st.Enclosures,
			Findings:   len(res.Lint),
			Elapsed:    res.Stages.Static,
		})
	}
	return rows
}

// StaticTotals sums region and finding counts for the perf trajectory.
func StaticTotals(rows []StaticRow) (regions, findings int) {
	for _, r := range rows {
		regions += r.Regions
		findings += r.Findings
	}
	return regions, findings
}
