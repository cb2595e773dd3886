// Command flowbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// paper-vs-measured discussion). System performance is measured by the
// benchmark under bench/, not here.
//
// Usage:
//
//	flowbench all          run everything
//	flowbench fig2|fig3|tab4|battleship|ssh|fig5|calendar|xserver|tab6|sp|kraft|divzero|check|collapse|multiclass|interp|static
//	flowbench fig3 -sizes 64,256,1024
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"flowcheck/internal/experiments"
)

var experimentsByName = []struct {
	name string
	desc string
	run  func(sizes []int)
}{
	{"fig2", "§2.4/Fig.2: count_punct (9 bits)", runFig2},
	{"fig3", "Fig.3: compression flow vs input size", runFig3},
	{"tab4", "Fig.4: case-study inventory", runTab4},
	{"battleship", "§8.1: KBattleship shot protocol", runBattleship},
	{"ssh", "§8.2: OpenSSH-style auth (128 bits)", runSSH},
	{"fig5", "Fig.5: image transforms", runFig5},
	{"calendar", "§8.4: appointment grid", runCalendar},
	{"xserver", "§8.5: X server text + exploit", runXServer},
	{"tab6", "Fig.6: enclosure-region inference", runTab6},
	{"sp", "§5.1: series-parallel structure", runSP},
	{"kraft", "§3.2: unary/binary consistency", runKraft},
	{"divzero", "§3.1: division example", runDivzero},
	{"check", "§6: checking modes", runCheck},
	{"collapse", "§5.2/5.3: graph collapsing", runCollapse},
	{"multiclass", "§10.1: different kinds of secret", runMultiClass},
	{"interp", "§10.3: analyzing interpreted code", runInterp},
	{"static", "static analysis: region inference + cross-check", runStatic},
}

func main() {
	fs := flag.NewFlagSet("flowbench", flag.ExitOnError)
	sizesFlag := fs.String("sizes", "", "comma-separated input sizes for fig3/sp/collapse sweeps")
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: flowbench <experiment|all> [-sizes n,n,...]")
		for _, e := range experimentsByName {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", e.name, e.desc)
		}
		os.Exit(2)
	}
	which := os.Args[1]
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	found := false
	for _, e := range experimentsByName {
		if which == "all" || which == e.name {
			found = true
			fmt.Printf("==== %s — %s ====\n", e.name, e.desc)
			e.run(sizes)
			fmt.Println()
		}
	}
	if !found {
		fmt.Fprintln(os.Stderr, "unknown experiment:", which)
		os.Exit(2)
	}
}

// parseSizes reads -sizes: comma-separated input sizes, each at least 1.
// The empty string means each experiment's default sweep (nil).
func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad size: %s", p)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

func runFig2(_ []int) {
	r := experiments.Fig2()
	fmt.Printf("input: %q\n", experiments.Fig2Input)
	fmt.Printf("output: %q\n", r.Output)
	fmt.Printf("flow with enclosure regions:   %5d bits   (paper: 9)\n", r.Bits)
	fmt.Printf("flow without regions:          %5d bits   (paper: 1855 on their input)\n", r.WithoutRegions)
	fmt.Printf("plain tainting bound:          %5d bits   (paper: 64)\n", r.TaintBound)
	fmt.Printf("minimum cut: %s\n", r.Cut)
}

func runFig3(sizes []int) {
	if sizes == nil {
		sizes = experiments.Fig3Sizes
	}
	fmt.Printf("%10s %10s %12s %12s %12s %10s %12s\n",
		"input(B)", "output(B)", "flow(bits)", "in(bits)", "out(bits)", "time", "steps")
	for _, p := range experiments.Fig3(sizes) {
		fmt.Printf("%10d %10d %12d %12d %12d %10s %12d\n",
			p.InputBytes, p.CompressedBytes, p.Bits, p.InputBits, p.OutputBits,
			p.Elapsed.Round(1000000), p.Steps)
	}
	fmt.Println("expected shape: flow ~ min(input bits, compressed output bits); linear time")
}

func runTab4(_ []int) {
	fmt.Printf("%-12s %-26s %-24s %s\n", "guest", "paper subject (KLOC)", "secret data", "guest lines")
	for _, r := range experiments.Tab4() {
		fmt.Printf("%-12s %-26s %-24s %d\n", r.Program, r.PaperKLOC, r.SecretData, r.GuestLines)
	}
}

func runBattleship(_ []int) {
	r := experiments.Battleship()
	fmt.Printf("miss reply %q:          %2d bits  (paper: 1)\n", r.MissReply, r.MissBits)
	fmt.Printf("non-fatal hit reply %q: %2d bits  (paper: 2)\n", r.HitReply, r.HitBits)
	fmt.Printf("buggy shipTypeAt reply:   %2d bits  (the §8.1 bug: type leaks)\n", r.BuggyBits)
	fmt.Printf("%d-shot game:              %2d bits; per-shot flows %v\n", r.GameShots, r.GameBits, r.PerShotFlows)
}

func runSSH(_ []int) {
	r := experiments.SSH()
	fmt.Printf("key size: %d bits; revealed: %d bits (paper: 128)\n", r.KeyBits, r.Bits)
	fmt.Printf("digest: %s\n", r.DigestHex)
	fmt.Printf("cut: %s\n", r.Cut)
}

func runFig5(_ []int) {
	r := experiments.Fig5()
	fmt.Printf("input image:  %6d bits   (paper: 375120, 125x125x16bit)\n", r.InputBits)
	fmt.Printf("pixelate:     %6d bits   (paper: 1464)\n", r.PixelateBits)
	fmt.Printf("blur:         %6d bits   (paper: 1720)\n", r.BlurBits)
	fmt.Printf("swirl:        %6d bits   (paper: 375120 = input size)\n", r.SwirlBits)
}

func runCalendar(_ []int) {
	r := experiments.Calendar()
	fmt.Printf("sparse (1 appointment):  %2d bits, grid %s   (paper: 12)\n", r.SparseBits, r.SparseGrid)
	fmt.Printf("busy   (5 appointments): %2d bits, grid %s   (paper: 18 at the display)\n", r.BusyBits, r.BusyGrid)
}

func runXServer(_ []int) {
	r := experiments.XServer()
	fmt.Printf("bounding box of \"Hello, world!\": %3d bits of %d (paper: ~21 of 104)\n", r.BBoxBits, r.TextBits)
	fmt.Printf("cut-and-paste (direct flow):     %3d bits\n", r.PasteBits)
	fmt.Printf("memory-scanning exploit flow:    %3d bits\n", r.ExploitBits)
	fmt.Printf("caught by §6.2 checker: %v (%s)\n", r.CheckerCaught, r.CheckerMessage)
}

func runTab6(_ []int) {
	reps := experiments.Tab6()
	fmt.Printf("%-12s %6s %8s %8s %10s %6s\n", "program", "hand", "needLen", "missExp", "missInter", "found")
	for _, r := range reps {
		fmt.Printf("%-12s %6d %8d %8d %10d %6d\n",
			r.Program, r.HandAnnots, r.NeedLength, r.MissExpand, r.MissInterp, r.FoundCount)
	}
	hand, found, frac := experiments.Tab6Total(reps)
	fmt.Printf("total found: %d/%d = %.0f%%   (paper: 72%%)\n", found, hand, 100*frac)
}

func runSP(sizes []int) {
	if sizes == nil {
		sizes = []int{256, 512, 1024, 2048}
	}
	fmt.Printf("%10s %10s %10s %12s %10s\n", "input(B)", "nodes", "edges", "core-frac", "flow")
	for _, p := range experiments.SPStudy(sizes) {
		fmt.Printf("%10d %10d %10d %12.3f %10d\n", p.InputBytes, p.Nodes, p.Edges, p.CoreFraction, p.FlowAfter)
	}
	fmt.Println("expected shape: a roughly constant irreducible core (paper: ~16% for bzip2)")
}

func runKraft(_ []int) {
	r := experiments.Kraft()
	fmt.Printf("per-run bounds (inputs 0,1,2,5,40,200): %v\n", r.PerRunBits)
	fmt.Printf("hypothetical per-run sum over all 256 inputs: %.4f (= 503/256; > 1, unsound)\n", r.PerRunSum)
	fmt.Printf("merged-graph bound: %d bits; Kraft satisfied: %v\n", r.MergedBits, r.MergedSound)
}

func runDivzero(_ []int) {
	z, nz := experiments.Divzero()
	fmt.Printf("zero divisor: %d bit(s); nonzero divisor: %d bit(s)   (paper: 1 each)\n", z, nz)
}

func runCheck(_ []int) {
	r := experiments.Checking()
	fmt.Printf("analysis flow:            %d bits\n", r.AnalysisBits)
	fmt.Printf("taint checker: revealed %d bits, %d violations, %d steps\n",
		r.TaintRevealed, r.TaintViolations, r.TaintSteps)
	fmt.Printf("lockstep checker: ok=%v, transferred %d bits, %d steps (plain run: %d steps)\n",
		r.LockstepOK, r.LockstepBits, r.LockstepSteps, r.PlainSteps)
}

func runMultiClass(_ []int) {
	r := experiments.MultiClass()
	for _, c := range r.Classes {
		fmt.Printf("class %-14s %2d bits\n", c.Class.Name+":", c.Bits)
	}
	fmt.Printf("joint analysis:       %2d bits\n", r.Joint)
	fmt.Printf("per-class sum %d >= joint %d: classes share the grid's capacity (§10.1 crowding out)\n", r.Sum, r.Joint)
}

func runInterp(_ []int) {
	r := experiments.Interp()
	fmt.Printf("script OUT(in[3] & 0x0F): %2d bits (want 4: the script's mask)\n", r.MaskNibbleBits)
	fmt.Printf("script OUT(in[0]^in[1]):  %2d bits (want 8: one byte of info)\n", r.XorBits)
	fmt.Printf("script dumping 3 bytes:   %2d bits (want 24)\n", r.DumpBits)
	fmt.Println("the measurement tracks the interpreted script, not the interpreter (§10.3)")
}

func runStatic(_ []int) {
	rows := experiments.StaticPass()
	fmt.Printf("%-12s %6s %7s %9s %8s %11s %9s %10s\n",
		"guest", "funcs", "blocks", "branches", "regions", "enclosures", "findings", "time")
	for _, r := range rows {
		fmt.Printf("%-12s %6d %7d %9d %8d %11d %9d %10s\n",
			r.Guest, r.Funcs, r.Blocks, r.Branches, r.Regions, r.Enclosures,
			r.Findings, r.Elapsed.Round(time.Microsecond))
	}
	regions, findings := experiments.StaticTotals(rows)
	fmt.Printf("total: %d inferred regions, %d cross-check findings (want 0)\n", regions, findings)
}

func runCollapse(sizes []int) {
	n := 1024
	if len(sizes) > 0 {
		n = sizes[0]
	}
	r := experiments.Collapse(n)
	fmt.Printf("input %d bytes, %d steps\n", r.InputBytes, r.Steps)
	fmt.Printf("exact graph:     %8d nodes %8d edges, flow %d bits\n", r.ExactNodes, r.ExactEdges, r.ExactBits)
	fmt.Printf("collapsed:       %8d nodes %8d edges, flow %d bits\n", r.CollapsedNodes, r.CollapsedEdges, r.CollapsedBits)
	fmt.Printf("ctx-sensitive:   %8d nodes, flow %d bits\n", r.CtxNodes, r.CtxBits)
	fmt.Println("(paper §5.3: 3.6e9 nodes pre-collapse vs ~22000 after, for their 2.5MB run)")
}
