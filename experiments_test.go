package flowcheck

// experiments_test.go asserts, for every table and figure of the paper's
// evaluation, that the regenerated result has the shape the paper reports
// (who wins, by roughly what factor, where crossovers fall). EXPERIMENTS.md
// records the exact numbers side by side.

import (
	"testing"

	"flowcheck/internal/experiments"
)

// E1 — §2.4 / Figure 2: count_punct reveals 9 bits; without regions the
// measurement blows up; the tainting bound is 64 bits.
func TestE1Figure2(t *testing.T) {
	r := experiments.Fig2()
	if r.Output != "........" {
		t.Fatalf("output %q", r.Output)
	}
	if r.Bits != 9 {
		t.Errorf("bits = %d, want 9 (paper: 9); cut %s", r.Bits, r.Cut)
	}
	if r.WithoutRegions <= 4*r.Bits {
		t.Errorf("without regions = %d, want >> 9 (paper: 1855 on their input)", r.WithoutRegions)
	}
	if r.TaintBound != 64 {
		t.Errorf("taint bound = %d, want 64 (paper: 64)", r.TaintBound)
	}
}

// E2 — Figure 3: for compressible inputs the flow tracks the compressed
// output size; for tiny inputs it is bounded by the input size; runtime
// grows roughly linearly (no quadratic blowup).
func TestE2Figure3(t *testing.T) {
	sizes := []int{64, 256, 1024, 4096}
	pts := experiments.Fig3(sizes)
	for _, p := range pts {
		if p.Bits > p.InputBits+64 {
			t.Errorf("n=%d: bits %d exceed input bits %d", p.InputBytes, p.Bits, p.InputBits)
		}
		if p.Bits > p.OutputBits+64 {
			t.Errorf("n=%d: bits %d exceed output bits %d (+slack)", p.InputBytes, p.Bits, p.OutputBits)
		}
	}
	// Large compressible inputs: flow well below input size, tracking the
	// compressed size.
	last := pts[len(pts)-1]
	if last.CompressedBytes >= last.InputBytes {
		t.Fatalf("pi words did not compress: %d -> %d", last.InputBytes, last.CompressedBytes)
	}
	if last.Bits >= last.InputBits {
		t.Errorf("n=%d: flow %d should be below input bits %d", last.InputBytes, last.Bits, last.InputBits)
	}
	if last.Bits < last.OutputBits/2 {
		t.Errorf("n=%d: flow %d far below compressed size %d", last.InputBytes, last.Bits, last.OutputBits)
	}
	// Near-linear scaling: steps per input byte roughly constant (allow 4x
	// drift across a 64x size range).
	first := pts[0]
	r0 := float64(first.Steps) / float64(first.InputBytes)
	r1 := float64(last.Steps) / float64(last.InputBytes)
	if r1 > 4*r0 {
		t.Errorf("runtime scaling superlinear: %.0f -> %.0f steps/byte", r0, r1)
	}
	// Collapsed graph size grows with code coverage plus the per-byte
	// secret-input source nodes — not with run time (the paper's §5.2
	// property; see EXPERIMENTS.md on the input-node term).
	if extra := last.GraphNodes - last.InputBytes; extra > (first.GraphNodes-first.InputBytes)*8 {
		t.Errorf("collapsed graph grew beyond coverage+input: %d extra nodes vs %d",
			extra, first.GraphNodes-first.InputBytes)
	}
}

// E3 — Figure 4: the case-study inventory exists and each guest compiles.
func TestE3Table4(t *testing.T) {
	rows := experiments.Tab4()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.GuestLines < 30 {
			t.Errorf("%s: suspiciously small guest (%d lines)", r.Program, r.GuestLines)
		}
	}
}

// E4 — §8.1: battleship protocol flows (paper: miss 1 bit, non-fatal hit 2
// bits), plus the shipTypeAt bug.
func TestE4Battleship(t *testing.T) {
	r := experiments.Battleship()
	if r.MissBits != 1 {
		t.Errorf("miss = %d bits, want 1 (paper: 1)", r.MissBits)
	}
	if r.HitBits != 2 {
		t.Errorf("non-fatal hit = %d bits, want 2 (paper: 2)", r.HitBits)
	}
	if r.BuggyBits < 8 {
		t.Errorf("buggy reply = %d bits, want >= 8 (the shipTypeAt leak)", r.BuggyBits)
	}
	if r.GameBits < int64(r.GameShots) || r.GameBits > int64(2*r.GameShots)+1 {
		t.Errorf("game = %d bits over %d shots", r.GameBits, r.GameShots)
	}
	for i := 1; i < len(r.PerShotFlows); i++ {
		if r.PerShotFlows[i] < r.PerShotFlows[i-1] {
			t.Errorf("real-time flow decreased: %v", r.PerShotFlows)
		}
	}
}

// E5 — §8.2: exactly 128 bits of the 512-bit key are revealed (the MD5
// digest bottleneck).
func TestE5SSH(t *testing.T) {
	r := experiments.SSH()
	if r.Bits != 128 {
		t.Errorf("ssh = %d bits, want 128 (paper: 128); cut %s", r.Bits, r.Cut)
	}
}

// E6 — Figure 5: pixelate < blur << swirl = input size.
func TestE6Figure5(t *testing.T) {
	r := experiments.Fig5()
	if !(r.PixelateBits < r.BlurBits) {
		t.Errorf("pixelate %d !< blur %d (paper: 1464 < 1720)", r.PixelateBits, r.BlurBits)
	}
	if r.BlurBits*4 > r.InputBits {
		t.Errorf("blur %d not well below input %d", r.BlurBits, r.InputBits)
	}
	if r.SwirlBits < r.InputBits*8/10 || r.SwirlBits > r.InputBits+64 {
		t.Errorf("swirl %d, want ~= input %d (paper: equal)", r.SwirlBits, r.InputBits)
	}
}

// E7 — §8.4: sparse calendars cut at the intersection loop (< grid size);
// busy calendars cut at the 18-square display.
func TestE7Calendar(t *testing.T) {
	r := experiments.Calendar()
	if r.SparseBits >= 18 {
		t.Errorf("sparse = %d bits, want < 18 (paper: 12)", r.SparseBits)
	}
	if r.BusyBits < 17 || r.BusyBits > 19 {
		t.Errorf("busy = %d bits, want ~18 (paper: 18)", r.BusyBits)
	}
	if r.SparseGrid != "BBRRRRBBBBBBBBBBBB" {
		t.Errorf("grid %q", r.SparseGrid)
	}
}

// E8 — §8.5: the bounding box reveals far less than the text; paste is a
// direct flow; the injected scanner is caught by the §6.2 checker.
func TestE8XServer(t *testing.T) {
	r := experiments.XServer()
	if r.BBoxBits >= r.TextBits/2 {
		t.Errorf("bbox = %d bits, want well below text %d (paper: 21 vs 104)", r.BBoxBits, r.TextBits)
	}
	if r.PasteBits != 256 {
		t.Errorf("paste = %d bits, want 256", r.PasteBits)
	}
	if !r.CheckerCaught {
		t.Error("exploit not caught by the tainting checker")
	}
}

// E9 — Figure 6: the pilot inference finds a majority of the hand
// annotations (paper: 72%).
func TestE9Table6(t *testing.T) {
	reps := experiments.Tab6()
	hand, found, frac := experiments.Tab6Total(reps)
	if hand == 0 {
		t.Fatal("no hand annotations found")
	}
	if frac < 0.5 {
		t.Errorf("pilot found %d/%d = %.0f%%, want a majority (paper: 72%%)", found, hand, 100*frac)
	}
}

// E10 — §5.1: flow graphs mix series-parallel and non-SP structure; a
// non-trivial irreducible core remains at every size. The reduced sizes
// and flows are pinned exactly (flowbench sp prints 0.126 / 1008 and
// 0.161 / 2544).
func TestE10SeriesParallel(t *testing.T) {
	want := map[int]struct {
		edges, reduced int
		flow           int64
	}{
		256:  {45928, 5799, 1008},
		1024: {223132, 35865, 2544},
	}
	pts := experiments.SPStudy([]int{256, 1024})
	for _, p := range pts {
		if p.FlowBefore != p.FlowAfter {
			t.Errorf("n=%d: reduction changed flow %d -> %d", p.InputBytes, p.FlowBefore, p.FlowAfter)
		}
		if p.CoreFraction <= 0.05 || p.CoreFraction >= 0.5 {
			t.Errorf("n=%d: core fraction %.2f, want a real mixture (paper: ~0.16; we measure 0.13-0.16)", p.InputBytes, p.CoreFraction)
		}
		w := want[p.InputBytes]
		if p.Edges != w.edges || p.ReducedEdges != w.reduced || p.FlowAfter != w.flow {
			t.Errorf("n=%d: edges %d -> %d, flow %d; want %d -> %d, flow %d",
				p.InputBytes, p.Edges, p.ReducedEdges, p.FlowAfter, w.edges, w.reduced, w.flow)
		}
	}
}

// E11 — §3.2: per-run unary bounds violate Kraft over all inputs
// (503/256); the merged graph is jointly sound.
func TestE11Kraft(t *testing.T) {
	r := experiments.Kraft()
	if r.PerRunSound {
		t.Error("per-run min(8, n+1) should violate Kraft")
	}
	if r.PerRunSum < 1.9 || r.PerRunSum > 2.0 {
		t.Errorf("per-run sum = %v, want 503/256", r.PerRunSum)
	}
	if r.MergedBits < 8 {
		t.Errorf("merged = %d bits, want >= 8", r.MergedBits)
	}
	if !r.MergedSound {
		t.Error("merged bound should satisfy Kraft")
	}
}

// E12 — §3.1: the division example reveals exactly one bit per execution.
func TestE12Divzero(t *testing.T) {
	z, nz := experiments.Divzero()
	if z != 1 || nz != 1 {
		t.Errorf("divzero = %d/%d bits, want 1/1", z, nz)
	}
}

// E13 — §6: both checkers accept the policy derived from the analysis, and
// the lockstep checker transfers a bounded number of bits.
func TestE13Checking(t *testing.T) {
	r := experiments.Checking()
	if r.TaintViolations != 0 {
		t.Errorf("taint checker violations: %d", r.TaintViolations)
	}
	if !r.LockstepOK {
		t.Error("lockstep checker diverged")
	}
	if r.LockstepBits == 0 {
		t.Error("lockstep should transfer the cut values")
	}
	// The lockstep checker executes each copy uninstrumented: its combined
	// step count is ~2x a plain run (§6.3).
	if r.LockstepSteps < r.PlainSteps || r.LockstepSteps > 3*r.PlainSteps {
		t.Errorf("lockstep steps %d vs plain %d, want ~2x", r.LockstepSteps, r.PlainSteps)
	}
}

// E14 — §5.2/§5.3: collapsing shrinks the graph by orders of magnitude
// while the measured flow stays sound (collapsed >= exact is NOT required
// in general, but both must bound the compressed size). The sizes and
// flows at 1024 B are pinned exactly (flowbench collapse prints them).
func TestE14Collapse(t *testing.T) {
	r := experiments.Collapse(1024)
	if r.CollapsedNodes*10 > r.ExactNodes {
		t.Errorf("collapse ineffective: %d exact vs %d collapsed nodes", r.ExactNodes, r.CollapsedNodes)
	}
	want := experiments.CollapseResult{
		InputBytes: 1024, Steps: 658699,
		ExactNodes: 185135, ExactEdges: 223132, ExactBits: 2544,
		CollapsedNodes: 1210, CollapsedEdges: 2295, CollapsedBits: 2544,
		CtxNodes: 1336, CtxBits: 2544,
	}
	if r != want {
		t.Errorf("collapse at 1024 B:\n got %+v\nwant %+v", r, want)
	}
}

// E15 — §10.1 (future work, implemented): per-class analysis bounds each
// kind of secret; classes share output capacity.
func TestE15MultiClass(t *testing.T) {
	r := experiments.MultiClass()
	if len(r.Classes) != 2 {
		t.Fatalf("classes = %d", len(r.Classes))
	}
	for _, c := range r.Classes {
		if c.Bits <= 0 || c.Bits > r.Joint {
			t.Errorf("class %s = %d bits, joint %d", c.Class.Name, c.Bits, r.Joint)
		}
	}
	if r.Sum < r.Joint {
		t.Errorf("per-class sum %d < joint %d?!", r.Sum, r.Joint)
	}
	if want := 1.0 / float64(len(r.Classes)); r.SharedExecsPerClass != want {
		t.Errorf("shared executions/class = %v, want %v (one execution for the whole set)",
			r.SharedExecsPerClass, want)
	}
}

// E17 — §10.3 (future work, implemented): analyzing interpreted code. The
// measured flow reflects the public script's computation over the secret
// data.
func TestE17Interpreter(t *testing.T) {
	r := experiments.Interp()
	if r.MaskNibbleBits != 4 || r.XorBits != 8 || r.DumpBits != 24 {
		t.Errorf("interp bits = %d/%d/%d, want 4/8/24", r.MaskNibbleBits, r.XorBits, r.DumpBits)
	}
}

// E2b — Figure 3's other regime: on incompressible (random) data the flow
// follows the input-size curve at every size.
func TestE2Figure3Incompressible(t *testing.T) {
	for _, p := range experiments.Fig3Incompressible([]int{64, 512, 2048}) {
		if p.CompressedBytes <= p.InputBytes {
			t.Fatalf("n=%d: random data should not compress (%d -> %d)",
				p.InputBytes, p.InputBytes, p.CompressedBytes)
		}
		if p.Bits > p.InputBits+64 || p.Bits < p.InputBits-64 {
			t.Errorf("n=%d: flow %d should track input bits %d", p.InputBytes, p.Bits, p.InputBits)
		}
	}
}
