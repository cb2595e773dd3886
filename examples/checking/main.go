// Checking: the full §6 lifecycle — measure once, then check cheaply.
//
// The count_punct program (Figure 2) is analyzed on a test input to obtain
// a 9-bit flow bound and its minimum cut. Future runs are then checked two
// ways: the tainting-based checker (§6.2) clears taint at the cut while
// counting revealed bits, and the lockstep output-comparison checker
// (§6.3) runs a shadow copy on a dummy input and transfers only the cut
// values. Finally a tampered program (an extra leak) is shown failing both.
//
// Run with: go run ./examples/checking
package main

import (
	"fmt"
	"log"
	"strings"

	"flowcheck"
	"flowcheck/internal/check"
	"flowcheck/internal/guest"
)

func main() {
	secret := []byte("one. two. three? four. five. six? seven. eight.")
	prog := guest.Program("count_punct")

	// Phase 1: measure and derive the policy.
	res, err := flowcheck.Analyze(prog, flowcheck.Inputs{Secret: secret}, flowcheck.Config{})
	if err != nil {
		log.Fatal(err)
	}
	cut := res.CutSites()
	fmt.Printf("analysis: %d bits; cut at sites %v\n", res.Bits, cut)
	fmt.Printf("          %s\n\n", res.CutString())

	// Phase 2a: tainting-based checking of a new run.
	newSecret := []byte("a? b? c? d. e? f?")
	chk, err := check.RunTaintCheck(prog, newSecret, nil, cut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("taint check of a new run: %d bits revealed across the cut, %d violations\n",
		chk.RevealedBits, len(chk.Violations))

	// Phase 2b: lockstep output comparison (~2x a plain run, §6.3).
	dummy := []byte(strings.Repeat("x", len(newSecret)))
	ls, err := check.RunLockstep(prog, newSecret, dummy, nil, cut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lockstep check: ok=%v, %d bits transferred at the cut, output %q\n\n",
		ls.OK, ls.BitsTransferred, ls.Output)

	// Phase 3: the same mechanism catching a real attack — the §8.5
	// scenario. The X-server guest's policy cut is derived from its
	// legitimate text-drawing mode; a run that takes the injected
	// memory-scanning path leaks outside the cut and is flagged.
	xprog := guest.Program("xserver")
	xsecret := append(append(append([]byte{},
		[]byte("card=4111111111111111 pin=0000!!")...), 5), []byte("hello")...)
	bbox, err := flowcheck.Analyze(xprog, flowcheck.Inputs{Secret: xsecret, Public: []byte{0}}, flowcheck.Config{})
	if err != nil {
		log.Fatal(err)
	}
	chk2, err := check.RunTaintCheck(xprog, xsecret, []byte{2}, bbox.CutSites())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("xserver exploit run under the bounding-box policy: %d violations", len(chk2.Violations))
	if len(chk2.Violations) > 0 {
		fmt.Printf("\n  first: %s", chk2.Violations[0])
	}
	fmt.Println()
}
