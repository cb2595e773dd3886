package static

import (
	"math/rand"
	"slices"
	"testing"

	"flowcheck/internal/guest"
	"flowcheck/internal/vm"
)

func ins(op vm.Op, a uint8, imm int32) vm.Instr {
	return vm.Instr{Op: op, A: a, Imm: imm}
}

func oneFunc(name string, code []vm.Instr) *vm.Program {
	return &vm.Program{
		Code:  code,
		Funcs: []vm.FuncInfo{{Name: name, Entry: 0, End: len(code)}},
	}
}

// cfgOf builds the single-function CFG of a hand-assembled program.
func cfgOf(t *testing.T, p *vm.Program) *FuncCFG {
	t.Helper()
	cfgs := BuildCFG(p)
	if len(cfgs) != 1 {
		t.Fatalf("got %d CFGs, want 1", len(cfgs))
	}
	return cfgs[0]
}

func TestNoFuncTableNoCFG(t *testing.T) {
	p := &vm.Program{Code: []vm.Instr{ins(vm.OpHalt, 0, 0)}}
	if got := BuildCFG(p); len(got) != 0 {
		t.Fatalf("hand-assembled program produced %d CFGs, want 0", len(got))
	}
	a := Analyze(p)
	if a.Covered(0) {
		t.Fatal("program without CFGs should have no covered pcs")
	}
}

// A conditional branch whose target is also reached by fallthrough: the
// fallthrough instruction and the jump target must land in different
// blocks, connected by an edge, not be merged.
func TestFallthroughIntoJumpTarget(t *testing.T) {
	p := oneFunc("f", []vm.Instr{
		ins(vm.OpConst, 0, 1), // 0
		ins(vm.OpJz, 0, 3),    // 1: branch over the nop
		ins(vm.OpNop, 0, 0),   // 2: fallthrough arm, falls into 3
		ins(vm.OpNop, 0, 0),   // 3: jump target
		ins(vm.OpHalt, 0, 0),  // 4
	})
	c := cfgOf(t, p)
	if len(c.Blocks) != 4 { // [0,2) [2,3) [3,5) + exit
		t.Fatalf("got %d blocks, want 4", len(c.Blocks))
	}
	if c.BlockAt(2) == c.BlockAt(3) {
		t.Fatal("fallthrough instruction merged into the jump-target block")
	}
	fall, target := c.BlockAt(2), c.BlockAt(3)
	if got := c.Blocks[fall].Succs; len(got) != 1 || got[0] != target {
		t.Fatalf("fallthrough block succs = %v, want [%d]", got, target)
	}
	branch := c.BlockAt(1)
	if got := c.Blocks[branch].Succs; len(got) != 2 {
		t.Fatalf("branch block succs = %v, want fallthrough+target", got)
	}
}

// A branch both of whose arms halt: no postdominator inside the function,
// so the inferred region conservatively spans everything reachable.
func TestBranchToExitNoPostdominator(t *testing.T) {
	p := oneFunc("f", []vm.Instr{
		ins(vm.OpJz, 0, 3),   // 0
		ins(vm.OpNop, 0, 0),  // 1
		ins(vm.OpHalt, 0, 0), // 2
		ins(vm.OpNop, 0, 0),  // 3
		ins(vm.OpHalt, 0, 0), // 4
	})
	a := Analyze(p)
	if len(a.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(a.Regions))
	}
	r := a.Regions[0]
	if r.PostDom != -1 {
		t.Fatalf("PostDom = %d, want -1 (only postdominator is the virtual exit)", r.PostDom)
	}
	for pc := 0; pc < 5; pc++ {
		if !r.Covers(pc) {
			t.Fatalf("region misses pc %d; must span everything reachable", pc)
		}
	}
}

// One arm is an infinite loop: its blocks never reach the exit (ipdom
// -1), and the branch's postdominator is the join on the terminating arm.
func TestInfiniteLoopArm(t *testing.T) {
	p := oneFunc("f", []vm.Instr{
		ins(vm.OpJz, 0, 4),   // 0: branch
		ins(vm.OpNop, 0, 0),  // 1: loop body
		ins(vm.OpNop, 0, 0),  // 2
		ins(vm.OpJmp, 0, 1),  // 3: spin forever
		ins(vm.OpHalt, 0, 0), // 4
	})
	c := cfgOf(t, p)
	ipdom := Postdominators(c)
	if loop := c.BlockAt(1); ipdom[loop] != -1 {
		t.Fatalf("infinite-loop block ipdom = %d, want -1 (cannot reach exit)", ipdom[loop])
	}
	a := Analyze(p)
	r := a.Regions[0]
	if r.PostDom != 4 {
		t.Fatalf("PostDom = %d, want 4 (the halting arm)", r.PostDom)
	}
	for pc := 0; pc <= 3; pc++ {
		if !r.Covers(pc) {
			t.Fatalf("region misses pc %d", pc)
		}
	}
	if r.Covers(4) {
		t.Fatal("region must stop at the postdominator")
	}
}

// The classic irreducible shape: a two-block loop entered at both blocks.
// The iterative and LT algorithms must agree, and the postdominators are
// still well-defined.
func TestIrreducibleLoop(t *testing.T) {
	p := oneFunc("f", []vm.Instr{
		ins(vm.OpJz, 0, 4),   // 0: enter loop at B (4) or fall to A's feeder
		ins(vm.OpNop, 0, 0),  // 1: feeder, falls into A
		ins(vm.OpNop, 0, 0),  // 2: A
		ins(vm.OpJz, 1, 6),   // 3: A: leave loop or fall into B
		ins(vm.OpNop, 0, 0),  // 4: B
		ins(vm.OpJmp, 0, 2),  // 5: B -> A (second loop entry is 0 -> 4)
		ins(vm.OpHalt, 0, 0), // 6
	})
	c := cfgOf(t, p)
	chk := Postdominators(c)
	lt := postdominatorsLT(c)
	for b := range chk {
		if chk[b] != lt[b] {
			t.Fatalf("block %d: CHK ipdom %d != LT ipdom %d", b, chk[b], lt[b])
		}
	}
	// Every path from A reaches the exit through A's own branch block; the
	// branch's postdominator is the halt.
	blkA, blkHalt := c.BlockAt(2), c.BlockAt(6)
	if chk[blkA] != blkHalt {
		t.Fatalf("ipdom(A) = %d, want %d (halt block)", chk[blkA], blkHalt)
	}
}

// An indirect jump gets every block leader of its function as successor,
// and its region covers everything reachable from them.
func TestIndirectJumpOverApproximation(t *testing.T) {
	p := oneFunc("f", []vm.Instr{
		ins(vm.OpConst, 0, 2),  // 0
		ins(vm.OpJmpInd, 0, 0), // 1
		ins(vm.OpNop, 0, 0),    // 2
		ins(vm.OpHalt, 0, 0),   // 3
	})
	c := cfgOf(t, p)
	if !c.Indirect {
		t.Fatal("CFG not marked Indirect")
	}
	b := c.Blocks[c.BlockAt(1)]
	if len(b.Succs) != c.Exit { // every real block is a leader here
		t.Fatalf("jmpind succs = %v, want all %d block leaders", b.Succs, c.Exit)
	}
	a := Analyze(p)
	if len(a.Regions) != 1 || !a.Regions[0].Indirect {
		t.Fatalf("want one indirect region, got %+v", a.Regions)
	}
	// The block after the jmpind postdominates it (every leader reaches
	// it), so the region is the jump's own block — including a potential
	// loop back to the entry — and stops at pc 2.
	r := a.Regions[0]
	if r.PostDom != 2 {
		t.Fatalf("PostDom = %d, want 2", r.PostDom)
	}
	for pc := 0; pc < 2; pc++ {
		if !r.Covers(pc) {
			t.Fatalf("pc %d not covered by the indirect region", pc)
		}
	}
	if r.Covers(2) {
		t.Fatal("region must stop at the postdominating block")
	}
}

// CHK and LT must agree on every guest program's CFG.
func TestPostdominatorsAgreeOnGuests(t *testing.T) {
	for _, name := range guest.Names() {
		for _, c := range BuildCFG(guest.Program(name)) {
			chk := Postdominators(c)
			lt := postdominatorsLT(c)
			for b := range chk {
				if chk[b] != lt[b] {
					t.Fatalf("%s/%s block %d: CHK ipdom %d != LT ipdom %d",
						name, c.Name, b, chk[b], lt[b])
				}
			}
		}
	}
}

// Randomized agreement: arbitrary (including unreachable and irreducible)
// block graphs, CHK vs LT.
func TestPostdominatorsAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12) // real blocks
		c := &FuncCFG{Name: "rand", Entry: 0, End: n}
		for i := 0; i < n; i++ {
			c.Blocks = append(c.Blocks, Block{ID: i, Start: i, End: i + 1})
		}
		c.Blocks = append(c.Blocks, Block{ID: n, Start: n, End: n})
		c.Exit = n
		for i := range c.Blocks[:n] {
			b := &c.Blocks[i]
			deg := 1 + rng.Intn(2)
			var succs []int
			for d := 0; d < deg; d++ {
				succs = append(succs, rng.Intn(n+1)) // may hit exit
			}
			b.Succs = dedupInts(succs)
			for _, s := range b.Succs {
				c.Blocks[s].Preds = append(c.Blocks[s].Preds, b.ID)
			}
		}
		chk := Postdominators(c)
		lt := postdominatorsLT(c)
		for b := range chk {
			if chk[b] != lt[b] {
				t.Fatalf("trial %d block %d: CHK ipdom %d != LT ipdom %d (graph %+v)",
					trial, b, chk[b], lt[b], c.Blocks)
			}
		}
	}
}

// postdominatorsLT computes the same ipdom array with the classic
// Lengauer–Tarjan semidominator algorithm (simple path-compression
// variant) over the reverse CFG. Used only by tests as an independent
// oracle for Postdominators.
func postdominatorsLT(c *FuncCFG) []int {
	n := len(c.Blocks)
	const none = -1

	semi := make([]int, n) // dfs number of semidominator
	vertex := make([]int, 0, n)
	parent := make([]int, n) // dfs tree parent
	dfsnum := make([]int, n)
	for i := range dfsnum {
		dfsnum[i] = none
		parent[i] = none
		semi[i] = none
	}

	// DFS over the reverse CFG from exit.
	var dfs func(int)
	dfs = func(v int) {
		dfsnum[v] = len(vertex)
		semi[v] = dfsnum[v]
		vertex = append(vertex, v)
		for _, w := range c.Blocks[v].Preds {
			if dfsnum[w] == none {
				parent[w] = v
				dfs(w)
			}
		}
	}
	dfs(c.Exit)

	ancestor := make([]int, n)
	label := make([]int, n)
	for i := range ancestor {
		ancestor[i] = none
		label[i] = i
	}
	var compress func(int)
	compress = func(v int) {
		if ancestor[ancestor[v]] == none {
			return
		}
		compress(ancestor[v])
		if semi[label[ancestor[v]]] < semi[label[v]] {
			label[v] = label[ancestor[v]]
		}
		ancestor[v] = ancestor[ancestor[v]]
	}
	eval := func(v int) int {
		if ancestor[v] == none {
			return v
		}
		compress(v)
		return label[v]
	}

	bucket := make([][]int, n)
	idom := make([]int, n)
	for i := range idom {
		idom[i] = none
	}

	for i := len(vertex) - 1; i >= 1; i-- {
		w := vertex[i]
		// Edges of the reverse CFG into w are successor edges of the CFG.
		for _, v := range c.Blocks[w].Succs {
			if dfsnum[v] == none {
				continue
			}
			u := eval(v)
			if semi[u] < semi[w] {
				semi[w] = semi[u]
			}
		}
		bucket[vertex[semi[w]]] = append(bucket[vertex[semi[w]]], w)
		ancestor[w] = parent[w]
		for _, v := range bucket[parent[w]] {
			u := eval(v)
			if semi[u] < semi[v] {
				idom[v] = u
			} else {
				idom[v] = parent[w]
			}
		}
		bucket[parent[w]] = nil
	}
	for i := 1; i < len(vertex); i++ {
		w := vertex[i]
		if idom[w] != vertex[semi[w]] {
			idom[w] = idom[idom[w]]
		}
	}

	ipdom := make([]int, n)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[c.Exit] = c.Exit
	for i := 1; i < len(vertex); i++ {
		w := vertex[i]
		ipdom[w] = idom[w]
	}
	return ipdom
}

// BlockAt returns the index of the block containing pc, or -1 if pc is
// outside the function.
func (c *FuncCFG) BlockAt(pc int) int {
	if pc < c.Entry || pc >= c.End {
		return -1
	}
	return int(c.blockOf[pc-c.Entry])
}

// dedupInts drops repeated values in place, keeping first occurrences.
func dedupInts(in []int) []int {
	out := in[:0]
	for _, v := range in {
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}
