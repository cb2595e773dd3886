package maxflow

import "flowcheck/internal/flowgraph"

// pushRelabel implements the FIFO push-relabel (Goldberg–Tarjan) algorithm
// with the global relabeling heuristic. The paper's §5 surveys general
// max-flow algorithms with at least O(VE) complexity; push-relabel is the
// classic alternative family to augmenting paths, included as a third
// exact implementation for the algorithm ablation
// (BenchmarkMaxflowAlgorithms).
//
// Global relabeling periodically recomputes heights as exact residual
// distances to the sink (or, for nodes that can no longer reach it, the
// distance back to the source offset by n), taking the maximum with the
// current height: the pointwise maximum of two valid distance labelings is
// itself valid, and heights stay monotone. This collapses the long chains
// that make the heuristic-free variant impractically slow on execution
// flow graphs.
//
// The algorithm runs to completion (heights up to 2n), so leftover excess
// drains back to the source and the terminal state is a genuine maximum
// flow — the residual graph then yields the usual minimum cut.
//
// All working arrays live on the Solver and are reused across Solve calls.
func (sv *Solver) pushRelabel() int64 {
	net := &sv.net
	n := net.n
	s, t := int32(flowgraph.Source), int32(flowgraph.Sink)

	sv.height = i32n(sv.height, n)
	sv.excess = i64n(sv.excess, n)
	sv.iter = i32n(sv.iter, n)
	sv.inQueue = booln(sv.inQueue, n)
	sv.newH = i32n(sv.newH, n)
	height, excess, iter, inQueue := sv.height, sv.excess, sv.iter, sv.inQueue
	newH := sv.newH
	for i := 0; i < n; i++ {
		height[i], excess[i], iter[i], inQueue[i] = 0, 0, 0, false
	}

	if cap(sv.queue) < n {
		sv.queue = make([]int32, 0, n)
	}
	queue := sv.queue[:0]
	enqueue := func(v int32) {
		if v != s && v != t && !inQueue[v] && excess[v] > 0 {
			inQueue[v] = true
			queue = append(queue, v)
		}
	}

	if cap(sv.bfsq) < n {
		sv.bfsq = make([]int32, 0, n)
	}
	bfsQueue := sv.bfsq[:0]
	// globalRelabel sets height[v] to the exact residual distance from v to
	// the sink; nodes that cannot reach the sink get n plus their residual
	// distance to the source (they can only return their excess). A reverse
	// arc w->v is residual exactly when the paired arc's residual capacity
	// (resid[b^1] for b incident to w) is positive.
	globalRelabel := func() {
		const unset = int32(1) << 30
		for i := range newH {
			newH[i] = unset
		}
		newH[t] = 0
		bfsQueue = append(bfsQueue[:0], t)
		for head := 0; head < len(bfsQueue); head++ {
			u := bfsQueue[head]
			for _, b := range net.arcs(u) {
				x := net.to[b]
				if newH[x] == unset && net.resid[b^1] > 0 {
					newH[x] = newH[u] + 1
					bfsQueue = append(bfsQueue, x)
				}
			}
		}
		newH[s] = int32(n)
		bfsQueue = append(bfsQueue[:0], s)
		for head := 0; head < len(bfsQueue); head++ {
			u := bfsQueue[head]
			for _, b := range net.arcs(u) {
				x := net.to[b]
				if newH[x] == unset && net.resid[b^1] > 0 {
					newH[x] = newH[u] + 1
					bfsQueue = append(bfsQueue, x)
				}
			}
		}
		for i := range height {
			if newH[i] != unset && newH[i] > height[i] {
				height[i] = newH[i]
			}
		}
		for i := range iter {
			iter[i] = 0
		}
	}

	// Saturate all arcs out of the source.
	for _, a := range net.arcs(s) {
		if net.resid[a] > 0 {
			w := net.to[a]
			amt := net.resid[a]
			net.resid[a] = 0
			net.resid[a^1] += amt
			excess[w] += amt
			excess[s] -= amt
			enqueue(w)
		}
	}
	globalRelabel()

	// Re-run the global relabel every n work units (relabels).
	relabels := 0
	for head := 0; head < len(queue); head++ {
		if sv.over() {
			// Budget exhausted: stop discharging. The preflow's arrival at
			// the sink (excess[t]) is what Solve reports as the
			// partial value.
			break
		}
		v := queue[head]
		inQueue[v] = false

		for excess[v] > 0 {
			sv.spent++
			if iter[v] == net.hstart[v+1]-net.hstart[v] {
				// Relabel: the height invariant (h[v] <= h[w]+1 on residual
				// arcs) guarantees the new height strictly increases.
				minH := int32(2*n + 1)
				for _, a := range net.arcs(v) {
					if net.resid[a] > 0 {
						if h := height[net.to[a]] + 1; h < minH {
							minH = h
						}
					}
				}
				if minH > int32(2*n) {
					break // isolated: no residual arcs
				}
				height[v] = minH
				iter[v] = 0
				relabels++
				if relabels >= n {
					relabels = 0
					globalRelabel()
				}
				continue
			}
			a := net.harcs[net.hstart[v]+iter[v]]
			w := net.to[a]
			if net.resid[a] > 0 && height[v] == height[w]+1 {
				amt := excess[v]
				if net.resid[a] < amt {
					amt = net.resid[a]
				}
				net.resid[a] -= amt
				net.resid[a^1] += amt
				excess[v] -= amt
				excess[w] += amt
				enqueue(w)
			} else {
				iter[v]++
			}
		}
	}
	sv.queue = queue[:0]
	sv.bfsq = bfsQueue[:0]
	return excess[t]
}
