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
	// Reverse-postorder of the reverse CFG, rooted at exit: a DFS over
	// predecessor edges, then reversed finish order.
	n := len(c.Blocks)
	order := make([]int, 0, n) // postorder of reverse-DFS
	number := make([]int, n)   // block -> postorder number
	visited := make([]bool, n)
	for i := range number {
		number[i] = -1
	}
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, p := range c.Blocks[b].Preds {
			if !visited[p] {
				dfs(p)
			}
		}
		number[b] = len(order)
		order = append(order, b)
	}
	dfs(c.Exit)

	ipdom := make([]int, n)
	for i := range ipdom {
		ipdom[i] = -1
	}
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
