package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// profile is how long and how often a workload runs.
type profile struct {
	seconds float64
	setups  int  // child processes timed for set-up, the measuring one included
	short   bool // smoke-test profile
}

// setupChildren is how many child processes a run times for set-up;
// setup_s is their median. The last one also measures.
const setupChildren = 9

// runDeadline bounds one workload run, children included.
const runDeadline = 170 * time.Second

// childRun is what the parent learns from one child.
type childRun struct {
	ready time.Duration // process start to "ready"
	rep   *childReport  // nil for set-up-only children
}

// spawnChild runs this program as a child and reads its "ready" and
// "result" lines; everything the child writes to standard error passes
// through.
func spawnChild(ctx context.Context, args []string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, append([]string{"child"}, args...)...)
	cmd.Stderr = os.Stderr
	// A child must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	run := &childRun{}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var parseErr error
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "ready":
			run.ready = time.Since(t0)
		case strings.HasPrefix(line, "result "):
			run.rep = &childReport{}
			parseErr = json.Unmarshal([]byte(strings.TrimPrefix(line, "result ")), run.rep)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	if parseErr != nil {
		return nil, fmt.Errorf("child result: %w", parseErr)
	}
	if run.ready == 0 {
		return nil, fmt.Errorf("child %v never reported ready", args)
	}
	return run, nil
}

// runWorkload runs one workload: p.setups child processes, all but the
// last only setting up, and the last measuring. With traceOut set, the
// measuring child is traced and the report holds per-layer metrics.
func runWorkload(w *workloadDef, seed int64, p profile, traceOut string) (*report, error) {
	if err := os.MkdirAll(workDir(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir(), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	var setups []float64
	var last *childRun
	n := max(p.setups, 1)
	for i := 0; i < n; i++ {
		cdir := filepath.Join(dir, fmt.Sprint(i))
		if err := os.Mkdir(cdir, 0o755); err != nil {
			return nil, err
		}
		if w.prepare != nil {
			if err := w.prepare(cdir, seed); err != nil {
				return nil, fmt.Errorf("preparing: %w", err)
			}
		}
		args := []string{
			"--workload", w.name,
			"--seed", fmt.Sprint(seed),
			"--seconds", fmt.Sprint(p.seconds),
			"--dir", cdir,
		}
		if p.short {
			args = append(args, "--short")
		}
		measuring := i == n-1
		if !measuring {
			args = append(args, "--setup-only")
		} else if traceOut != "" {
			args = append(args, "--trace-out", traceOut)
		}
		run, err := spawnChild(ctx, args)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.ready.Seconds())
		if measuring {
			last = run
		}
	}
	if last.rep == nil {
		return nil, fmt.Errorf("measuring child printed no result")
	}
	values := last.rep.Metrics
	values["setup_s"] = median(setups)
	specs := endToEnd
	if traceOut != "" {
		specs = perLayer
	}
	rep := &report{
		Correct:   last.rep.Failed == 0 && len(last.rep.Failures) == 0,
		Attempted: last.rep.Attempted,
		Failed:    last.rep.Failed,
		Metrics:   withUnits(specs, values),
	}
	printTable(w.name, seed, rep, last.rep.Failures, traceOut)
	return rep, nil
}

// printTable writes the human-readable result to standard error.
func printTable(name string, seed int64, rep *report, failures []string, traceOut string) {
	f := os.Stderr
	fmt.Fprintf(f, "== %s (seed %d): %d operations, %d failed\n", name, seed, rep.Attempted, rep.Failed)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "   %-30s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, msg := range failures {
		fmt.Fprintf(f, "   FAILED: %s\n", msg)
	}
	if traceOut != "" {
		fmt.Fprintf(f, "   spans: %s\n", traceOut)
	}
}
