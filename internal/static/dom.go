package static

// Postdominator computation: the iterative dataflow formulation of
// Cooper, Harvey & Kennedy ("A Simple, Fast Dominance Algorithm"), run
// over the reverse CFG rooted at the virtual exit block. It is near-linear
// on our small reducible CFGs; the tests cross-check it against a
// Lengauer–Tarjan oracle.

// Postdominators returns ipdom, where ipdom[b] is the immediate
// postdominator of block b, ipdom[exit] == exit, and ipdom[b] == -1 for
// blocks that cannot reach the exit (e.g. bodies of infinite loops).
func Postdominators(c *FuncCFG) []int {
	var sc domScratch
	return sc.postdominators(c)
}

// domScratch is the postdominator pass's working storage, reused from one
// function to the next. The ipdom slice postdominators returns is part of
// it, valid until the next call.
type domScratch struct {
	order  []int // postorder of the reverse-CFG DFS
	number []int // block -> postorder number, -1 if unreached
	ipdom  []int
	work   []sccFrame
}

func (sc *domScratch) postdominators(c *FuncCFG) []int {
	// Reverse-postorder of the reverse CFG, rooted at exit: a DFS over
	// predecessor edges, then reversed finish order.
	n := len(c.Blocks)
	const unvisited, open = -1, -2
	number := fill(sc.number, n, unvisited)
	order := sc.order[:0]
	work := append(sc.work[:0], sccFrame{c.Exit, 0})
	number[c.Exit] = open
	for len(work) > 0 {
		f := &work[len(work)-1]
		if preds := c.Blocks[f.v].Preds; f.i < len(preds) {
			p := preds[f.i]
			f.i++
			if number[p] == unvisited {
				number[p] = open
				work = append(work, sccFrame{p, 0})
			}
			continue
		}
		number[f.v] = len(order)
		order = append(order, f.v)
		work = work[:len(work)-1]
	}
	sc.number, sc.order, sc.work = number, order, work

	ipdom := fill(sc.ipdom, n, -1)
	sc.ipdom = ipdom
	ipdom[c.Exit] = c.Exit

	intersect := func(a, b int) int {
		for a != b {
			for number[a] < number[b] {
				a = ipdom[a]
			}
			for number[b] < number[a] {
				b = ipdom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		// Iterate in reverse postorder of the reverse graph: exit first.
		for i := len(order) - 1; i >= 0; i-- {
			b := order[i]
			if b == c.Exit {
				continue
			}
			newIdom := -1
			for _, s := range c.Blocks[b].Succs {
				if ipdom[s] == -1 {
					continue // successor not (yet) known to reach exit
				}
				if newIdom == -1 {
					newIdom = s
				} else {
					newIdom = intersect(s, newIdom)
				}
			}
			if newIdom != -1 && ipdom[b] != newIdom {
				ipdom[b] = newIdom
				changed = true
			}
		}
	}
	return ipdom
}
