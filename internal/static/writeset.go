package static

// Write-set analysis: classify every store in a code range the way the
// paper's §8.6 pilot classifies enclosure outputs (Figure 6). A store
// whose address is a compile-time constant is a global write and a store
// at a constant frame-pointer offset is a local-variable write — both are
// "found" outputs the pilot analysis could emit directly. A store whose
// address the analysis cannot resolve (pointer arithmetic on runtime
// values, array indexing by a loop variable) is the bytecode analogue of
// the pilot's "expansion" outputs: the enclosure must declare a larger
// enclosing object. Calls out of the range correspond to the
// "interprocedural" rows — outputs written by a callee. The classifier
// (ClassifyWrites, CountWrites) serves only the Figure 6 check and lives
// beside it in writeset_test.go; this file holds the abstract values it
// shares with Bound's syscall scan.
//
// The classification is a per-block constant propagation over three
// abstract values: unknown (⊤), an exact constant, and a constant offset
// from the frame pointer. Blocks start from scratch (BP = frame+0,
// everything else unknown) because the MiniC compiler establishes BP in
// the prologue and never modifies it mid-body, so the frame-relative
// lattice stays valid without a join across edges; any cross-block
// address computation simply degrades to unknown, which is the
// conservative direction.

// abstract value lattice: ⊤, Const(c), or BP+off.
type absKind uint8

const (
	absTop absKind = iota
	absConst
	absBP
)

type absVal struct {
	kind absKind
	off  int64 // constant value or BP offset
}

var top = absVal{kind: absTop}

func absAdd(a, b absVal) absVal {
	switch {
	case a.kind == absConst && b.kind == absConst:
		return absVal{kind: absConst, off: a.off + b.off}
	case a.kind == absBP && b.kind == absConst:
		return absVal{kind: absBP, off: a.off + b.off}
	case a.kind == absConst && b.kind == absBP:
		return absVal{kind: absBP, off: a.off + b.off}
	}
	return top
}

func absSub(a, b absVal) absVal {
	switch {
	case a.kind == absConst && b.kind == absConst:
		return absVal{kind: absConst, off: a.off - b.off}
	case a.kind == absBP && b.kind == absConst:
		return absVal{kind: absBP, off: a.off - b.off}
	}
	return top
}
