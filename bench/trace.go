package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"flowcheck/internal/engine"
)

// span is one timed interval of a traced operation. Spans of one operation
// share Op; Parent indexes the enclosing span (-1 for the operation's
// root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`  // response bytes written, for handler spans
	Failed bool   `json:"failed,omitempty"` // the call failed or was abandoned
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a span and returns its index for children to refer to.
func (r *recorder) add(name string, op int64, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name:   name,
		Op:     op,
		Parent: parent,
		Start:  start.Sub(r.t0).Nanoseconds(),
		End:    end.Sub(r.t0).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// begin opens a span that ends later, at finish; until then its End is -1.
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	start := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: -1})
	return len(r.spans) - 1
}

// finish ends a span opened by begin. Only the first call counts.
func (r *recorder) finish(i, bytes int, failed bool) {
	if r == nil || i < 0 {
		return
	}
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := &r.spans[i]; s.End < 0 {
		s.End, s.Bytes, s.Failed = end, bytes, failed
	}
}

// stagePart is one derived stage span.
type stagePart struct {
	name string
	d    time.Duration
}

// stageParts lays out the engine's own stage timings (Result.Stages). A
// batch reports stage times summed over its runs, which ran on workers
// sessions at once, so its per-run stages become one "engine.runs" part of
// their summed time divided by workers, followed by the merge and joint
// solve.
func stageParts(st engine.StageStats, workers int) []stagePart {
	if workers > 1 {
		return []stagePart{
			{"engine.runs", (st.Execute + st.Build + st.Solve + st.Report) / time.Duration(workers)},
			{"merge.merge", st.Merge},
		}
	}
	return []stagePart{
		{"stagecache.lookup", st.Lookup},
		{"static.pass", st.Static},
		{"taint.execute", st.Execute},
		{"taint.build", st.Build},
		{"maxflow.solve", st.Solve},
		{"engine.report", st.Report},
	}
}

// accounted is the part of an engine call its stage timings explain.
func accounted(st engine.StageStats, workers int) time.Duration {
	var total time.Duration
	for _, p := range stageParts(st, workers) {
		total += p.d
	}
	return total
}

// stages records the stage parts as child spans of a call that ended at
// end. The engine reports durations, not timestamps, so the parts are
// placed back to back, ending with the call; the part of the call before
// them is the engine's self time.
func (r *recorder) stages(op int64, parent int, end time.Time, st engine.StageStats, workers int) {
	if r == nil {
		return
	}
	at := end.Add(-accounted(st, workers))
	for _, p := range stageParts(st, workers) {
		if p.d > 0 {
			r.add(p.name, op, parent, at, at.Add(p.d))
		}
		at = at.Add(p.d)
	}
}

// done says whether span i finished without failing. The caller holds r.mu.
func (r *recorder) done(i int) bool { return r.spans[i].End >= 0 && !r.spans[i].Failed }

// children lists each span's children that are done. The caller holds r.mu.
func (r *recorder) children() map[int][]int {
	out := map[int][]int{}
	for i, s := range r.spans {
		if s.Parent >= 0 && r.done(i) {
			out[s.Parent] = append(out[s.Parent], i)
		}
	}
	return out
}

// reconcile checks the span tree of every traced operation and returns the
// share of the operations' latency that their innermost spans cover.
//
// Every finished child span must start within its parent. A derived stage
// span that starts before its call began, for instance, means the engine
// reported more stage time than the call took. A child may end after its
// parent: a hedged round trip that lost the race can finish after the
// coordinator has answered. The innermost spans (the engine's stages, the
// generator's lag, a shard's handler) are each timed on their own, so what
// they cover of the operation is a measurement, not an identity: the rest
// is self time of the layers around them.
func (r *recorder) reconcile(g *gate) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := r.children()
	var covered, total int64
	for root, s := range r.spans {
		if s.Parent >= 0 || !r.done(root) {
			continue
		}
		var leaves []span
		var walk func(i int)
		walk = func(i int) {
			p := r.spans[i]
			for _, c := range children[i] {
				if cs := r.spans[c]; cs.Start < p.Start || cs.Start > p.End {
					g.failf("trace: op %d: span %s [%d, %d] starts outside its parent %s [%d, %d]",
						cs.Op, cs.Name, cs.Start, cs.End, p.Name, p.Start, p.End)
				}
				walk(c)
			}
			if len(children[i]) == 0 && i != root {
				leaves = append(leaves, p)
			}
		}
		walk(root)
		covered += union(leaves, s.End)
		total += s.End - s.Start
	}
	return ratio(float64(covered), float64(total))
}

// union is the length of time the spans cover together before until.
func union(spans []span, until int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var n, end int64
	for _, s := range spans {
		start, stop := max(s.Start, end), min(s.End, until)
		if stop > start {
			n += stop - start
			end = stop
		}
	}
	return n
}

// write saves the spans as one JSON document.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
