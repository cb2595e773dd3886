// Command flowbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// paper-vs-measured discussion).
//
// Usage:
//
//	flowbench all          run everything
//	flowbench fig2|fig3|tab4|battleship|ssh|fig5|calendar|xserver|tab6|sp|kraft|divzero|check|collapse
//	flowbench fig3 -sizes 64,256,1024
package main

import (
	"encoding/json"
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
	{"compact", "§5.1/5.2: online arena compaction", runCompaction},
	{"multiclass", "§10.1: different kinds of secret", runMultiClass},
	{"interp", "§10.3: analyzing interpreted code", runInterp},
	{"batch", "engine: parallel batch vs serial multi-run", runBatch},
	{"degrade", "engine: solver-budget degradation tradeoff", runDegrade},
	{"cache", "engine: content-addressed cache cold/warm", runCache},
	{"ledger", "service: leakage-ledger charge+settle overhead per request", runLedger},
	{"static", "static analysis: region inference + cross-check", runStatic},
	{"ladder", "precision ladder: lower/measured/static/trivial tightness per guest", runLadder},
}

// timingRecord is the machine-readable per-experiment timing emitted by
// -json (one array on stdout; the human tables go to stderr). The static
// experiment additionally reports its inferred-region and cross-check
// finding totals, so the perf trajectory captures the new stage.
type timingRecord struct {
	Name     string  `json:"name"`
	Desc     string  `json:"desc"`
	Seconds  float64 `json:"seconds"`
	Regions  int     `json:"regions,omitempty"`
	Findings int     `json:"findings,omitempty"`
	// The compact experiment's memory summary (largest sweep point).
	TotalEdges    int     `json:"total_edges,omitempty"`
	PeakLiveEdges int     `json:"peak_live_edges,omitempty"`
	Passes        int     `json:"compaction_passes,omitempty"`
	EdgeRatio     float64 `json:"edge_ratio,omitempty"`
	// The cache experiment's per-run latencies and reuse summary.
	ColdMS  float64 `json:"cold_ms,omitempty"`
	WarmMS  float64 `json:"warm_ms,omitempty"`
	HitRate float64 `json:"hit_rate,omitempty"`
	// The ledger experiment's per-request charge+settle overhead by
	// durability regime (microseconds), and the cost of a budget denial.
	ChargeSettleUS        float64 `json:"charge_settle_us,omitempty"`
	ChargeSettleDurableUS float64 `json:"charge_settle_durable_us,omitempty"`
	ChargeSettleSyncedUS  float64 `json:"charge_settle_synced_us,omitempty"`
	DeniedUS              float64 `json:"denied_us,omitempty"`
	// The ladder experiment's gap-demo bounds (bits per rung) and the
	// summed per-rung analysis latencies across the corpus.
	TrivialBits  int64   `json:"trivial_bits,omitempty"`
	StaticBits   int64   `json:"static_bits,omitempty"`
	MeasuredBits int64   `json:"measured_bits,omitempty"`
	StaticUS     float64 `json:"static_us,omitempty"`
	FullUS       float64 `json:"full_us,omitempty"`
	// The multiclass experiment's comparison of one plain analysis per
	// class (reexec) against one shared execution: mean class-set latency
	// and executions per class actually performed (1.0 for reexec, 1/N
	// for the shared path).
	ReexecMS            float64 `json:"reexec_ms,omitempty"`
	SharedMS            float64 `json:"shared_ms,omitempty"`
	ReexecExecsPerClass float64 `json:"reexec_execs_per_class,omitempty"`
	SharedExecsPerClass float64 `json:"shared_execs_per_class,omitempty"`
	// Pointer so false survives encoding: "did both ways agree
	// bit-for-bit" is meaningful either way (false = the shared bound was
	// strictly looser somewhere, never tighter).
	MultiClassAgree *bool `json:"class_modes_agree,omitempty"`
}

// staticTotals carries the static experiment's counts from its run
// function to the timing record (run functions return nothing).
var staticTotals struct{ regions, findings int }

// compactTotals likewise carries the compact experiment's memory summary.
var compactTotals struct {
	totalEdges, peakLiveEdges, passes int
	ratio                             float64
}

// cacheTotals carries the cache experiment's per-run latencies (ms) and
// result hit rate.
var cacheTotals struct {
	coldMS, warmMS, hitRate float64
}

// ledgerTotals carries the ledger experiment's per-request overheads (µs).
var ledgerTotals struct {
	volatileUS, lazyUS, syncUS, deniedUS float64
}

// ladderTotals carries the ladder experiment's gap-demo bounds and
// summed per-rung latencies.
var ladderTotals struct {
	trivialBits, staticBits, measuredBits int64
	fullUS, staticUS                      float64
}

// multiclassTotals carries the multiclass experiment's old-vs-new
// pipeline comparison.
var multiclassTotals struct {
	reexecMS, sharedMS   float64
	reexecEPC, sharedEPC float64
	agree                bool
}

func main() {
	fs := flag.NewFlagSet("flowbench", flag.ExitOnError)
	sizesFlag := fs.String("sizes", "", "comma-separated input sizes for fig3/sp/collapse sweeps")
	jsonFlag := fs.Bool("json", false, "emit per-experiment timings as JSON on stdout (tables go to stderr)")
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: flowbench <experiment|all> [-sizes n,n,...] [-json]")
		for _, e := range experimentsByName {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", e.name, e.desc)
		}
		os.Exit(2)
	}
	which := os.Args[1]
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	var sizes []int
	if *sizesFlag != "" {
		for _, p := range strings.Split(*sizesFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				fmt.Fprintln(os.Stderr, "bad size:", p)
				os.Exit(2)
			}
			sizes = append(sizes, v)
		}
	}

	// With -json, the human-readable tables move to stderr so stdout
	// carries only the JSON; fmt.Printf resolves os.Stdout at call time.
	realStdout := os.Stdout
	if *jsonFlag {
		os.Stdout = os.Stderr
	}

	found := false
	var timings []timingRecord
	for _, e := range experimentsByName {
		if which == "all" || which == e.name {
			found = true
			fmt.Printf("==== %s — %s ====\n", e.name, e.desc)
			start := time.Now()
			e.run(sizes)
			rec := timingRecord{Name: e.name, Desc: e.desc, Seconds: time.Since(start).Seconds()}
			if e.name == "static" {
				rec.Regions, rec.Findings = staticTotals.regions, staticTotals.findings
			}
			if e.name == "compact" {
				rec.TotalEdges, rec.PeakLiveEdges = compactTotals.totalEdges, compactTotals.peakLiveEdges
				rec.Passes, rec.EdgeRatio = compactTotals.passes, compactTotals.ratio
			}
			if e.name == "cache" {
				rec.ColdMS, rec.WarmMS, rec.HitRate = cacheTotals.coldMS, cacheTotals.warmMS, cacheTotals.hitRate
			}
			if e.name == "ledger" {
				rec.ChargeSettleUS, rec.ChargeSettleDurableUS = ledgerTotals.volatileUS, ledgerTotals.lazyUS
				rec.ChargeSettleSyncedUS, rec.DeniedUS = ledgerTotals.syncUS, ledgerTotals.deniedUS
			}
			if e.name == "ladder" {
				rec.TrivialBits, rec.StaticBits = ladderTotals.trivialBits, ladderTotals.staticBits
				rec.MeasuredBits = ladderTotals.measuredBits
				rec.FullUS, rec.StaticUS = ladderTotals.fullUS, ladderTotals.staticUS
			}
			if e.name == "multiclass" {
				rec.ReexecMS, rec.SharedMS = multiclassTotals.reexecMS, multiclassTotals.sharedMS
				rec.ReexecExecsPerClass = multiclassTotals.reexecEPC
				rec.SharedExecsPerClass = multiclassTotals.sharedEPC
				agree := multiclassTotals.agree
				rec.MultiClassAgree = &agree
			}
			timings = append(timings, rec)
			fmt.Println()
		}
	}
	if !found {
		fmt.Fprintln(os.Stderr, "unknown experiment:", which)
		os.Exit(2)
	}
	if *jsonFlag {
		os.Stdout = realStdout
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(timings); err != nil {
			fmt.Fprintln(os.Stderr, "flowbench:", err)
			os.Exit(1)
		}
	}
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
	fmt.Printf("pipeline (mean of %d iterations):\n", r.Iters)
	fmt.Println("  mode    latency     executions/class")
	fmt.Printf("  reexec  %8.3fms  %.2f\n", r.ReexecMS, r.ReexecExecsPerClass)
	fmt.Printf("  shared  %8.3fms  %.2f  (%.2fx vs reexec)\n",
		r.SharedMS, r.SharedExecsPerClass, r.ReexecMS/r.SharedMS)
	fmt.Printf("modes agree on every class bound: %v\n", r.Agree)
	multiclassTotals.reexecMS, multiclassTotals.sharedMS = r.ReexecMS, r.SharedMS
	multiclassTotals.reexecEPC, multiclassTotals.sharedEPC = r.ReexecExecsPerClass, r.SharedExecsPerClass
	multiclassTotals.agree = r.Agree
}

func runInterp(_ []int) {
	r := experiments.Interp()
	fmt.Printf("script OUT(in[3] & 0x0F): %2d bits (want 4: the script's mask)\n", r.MaskNibbleBits)
	fmt.Printf("script OUT(in[0]^in[1]):  %2d bits (want 8: one byte of info)\n", r.XorBits)
	fmt.Printf("script dumping 3 bytes:   %2d bits (want 24)\n", r.DumpBits)
	fmt.Println("the measurement tracks the interpreted script, not the interpreter (§10.3)")
}

func runBatch(sizes []int) {
	runs := 8
	if len(sizes) > 0 {
		runs = sizes[0]
	}
	r := experiments.Batch(runs)
	fmt.Printf("%d runs of %s, %d worker(s) available\n", r.Runs, r.Guest, r.Workers)
	fmt.Printf("serial Analyze x%d:      %10s\n", r.Runs, r.Serial.Round(time.Microsecond))
	fmt.Printf("AnalyzeBatch workers=1:  %10s\n", r.Batch1.Round(time.Microsecond))
	fmt.Printf("AnalyzeBatch workers=%-2d: %10s  (%.2fx vs serial)\n",
		r.Workers, r.BatchN.Round(time.Microsecond), float64(r.Serial)/float64(r.BatchN))
	fmt.Printf("joint bound: %d bits; workers=1 == workers=%d: %v; per-run %v\n", r.JointBits, r.Workers, r.Agree, r.PerRunBits)
}

func runDegrade(sizes []int) {
	n := 1024
	if len(sizes) > 0 {
		n = sizes[0]
	}
	r := experiments.Degrade(n)
	fmt.Printf("%s, %d input bytes; exact max flow %d bits\n", r.Guest, n, r.ExactBits)
	fmt.Println("  solver budget     bound  degraded     solve")
	for _, p := range r.Points {
		fmt.Printf("  %13d  %8d  %8v  %8s\n", p.Budget, p.Bits, p.Degraded, p.Solve.Round(time.Microsecond))
	}
	fmt.Println("(every budget yields a sound bound; exhausted solves fall back to the trivial cut)")
}

func runCache(sizes []int) {
	n := 32
	if len(sizes) > 0 {
		n = sizes[0]
	}
	r := experiments.CacheStudy(n)
	perRun := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / 1000 / float64(r.Inputs)
	}
	fmt.Printf("%d distinct inputs per phase\n", r.Inputs)
	fmt.Printf("  %-12s %-12s %10s\n", "phase", "disposition", "per-run")
	fmt.Printf("  %-12s %-12s %9.3fms\n", "cold", r.ColdDisp, perRun(r.Cold))
	fmt.Printf("  %-12s %-12s %9.3fms\n", "warm", r.WarmDisp, perRun(r.Warm))
	fmt.Printf("result hit ratio %.3f, evictions %d; cached == uncached: %v\n",
		r.HitRatio, r.Evictions, r.BitsAgree)
	fmt.Println("(cold runs the full pipeline; warm answers from the cached result")
	fmt.Println(" without touching a session)")
	cacheTotals.coldMS, cacheTotals.warmMS, cacheTotals.hitRate = perRun(r.Cold), perRun(r.Warm), r.HitRatio
}

func runLedger(sizes []int) {
	n := 2000
	if len(sizes) > 0 {
		n = sizes[0]
	}
	r := experiments.LedgerStudy(n)
	perOp := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / float64(r.Ops)
	}
	fmt.Printf("%d charge+settle pairs per regime\n", r.Ops)
	fmt.Printf("  %-22s %10s\n", "regime", "per-req")
	fmt.Printf("  %-22s %8.2fµs\n", "volatile (no WAL)", perOp(r.Volatile))
	fmt.Printf("  %-22s %8.2fµs\n", "durable, no fsync", perOp(r.DurableLazy))
	fmt.Printf("  %-22s %8.2fµs\n", "durable, fsync/append", perOp(r.DurableSync))
	fmt.Printf("  %-22s %8.2fµs\n", "budget denial", perOp(r.Denied))
	fmt.Printf("replay recovers synced bits exactly: %v; WAL after compaction: %dB\n",
		r.ReplayOK, r.WALBytes)
	fmt.Println("(the fail-closed default pays one fsync per charge and one per settle;")
	fmt.Println(" denials are pure memory — exhausted principals are cheap to refuse)")
	ledgerTotals.volatileUS, ledgerTotals.lazyUS = perOp(r.Volatile), perOp(r.DurableLazy)
	ledgerTotals.syncUS, ledgerTotals.deniedUS = perOp(r.DurableSync), perOp(r.Denied)
}

func runCompaction(sizes []int) {
	if sizes == nil {
		sizes = experiments.CompactionSizes
	}
	fmt.Printf("%10s %12s %12s %12s %8s %12s %8s\n",
		"input(B)", "steps", "edges-total", "peak-live", "passes", "reclaimed", "ratio")
	for _, p := range experiments.Compaction(sizes) {
		fmt.Printf("%10d %12d %12d %12d %8d %12d %7.1fx\n",
			p.InputBytes, p.Steps, p.TotalEdges, p.PeakLiveEdges,
			p.CompactionPasses, p.ReclaimedEdges, p.Ratio)
		compactTotals.totalEdges, compactTotals.peakLiveEdges = p.TotalEdges, p.PeakLiveEdges
		compactTotals.passes, compactTotals.ratio = p.CompactionPasses, p.Ratio
	}
	fmt.Println("expected shape: emitted edges grow with executed instructions, peak live")
	fmt.Println("with the graph's irreducible core (>= 5x smaller); bounds are unchanged")
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
	staticTotals.regions, staticTotals.findings = regions, findings
	fmt.Printf("total: %d inferred regions, %d cross-check findings (want 0)\n", regions, findings)
}

func runLadder(_ []int) {
	rows := experiments.Ladder()
	fmt.Printf("%-12s %8s %9s %9s %9s %9s %11s %11s %11s\n",
		"guest", "secret", "lower", "measured", "static", "trivial", "t(trivial)", "t(static)", "t(full)")
	for _, r := range rows {
		lower := fmt.Sprintf("%.1f", r.LowerBits)
		if !r.Exhaustive {
			lower += "*"
		}
		fmt.Printf("%-12s %7dB %9s %9d %9d %9d %11s %11s %11s\n",
			r.Guest, r.SecretBytes, lower, r.MeasuredBits, r.StaticBits, r.TrivialBits,
			r.TrivialTime.Round(time.Microsecond), r.StaticTime.Round(time.Microsecond),
			r.FullTime.Round(time.Microsecond))
	}
	t, s, m, fullUS, staticUS := experiments.LadderTotals(rows)
	ladderTotals.trivialBits, ladderTotals.staticBits, ladderTotals.measuredBits = t, s, m
	ladderTotals.fullUS, ladderTotals.staticUS = fullUS, staticUS
	fmt.Printf("gap demo (%dB secret, 4 bytes read): trivial %d > static %d > measured %d bits\n",
		experiments.LadderGapSecretBytes, t, s, m)
	fmt.Println("(* = sampled lower bound: the behavior enumeration covered part of the domain;")
	fmt.Println(" soundness requires measured <= static <= trivial and lower <= static on every")
	fmt.Println(" row; lower may exceed single-run measured — the §3.2 caveat, see unary)")
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
