// Package detlint is a repo-local determinism lint for the layers whose
// outputs must be byte-identical across processes: the location-keyed
// graph merge (internal/merge) and the content-address derivation
// (internal/cachekey). A merged graph is cached under its content
// address and a cache key IS a content address, so any nondeterminism —
// wall-clock reads, or iteration over a Go map, whose order is
// randomized per process — silently poisons the cache instead of
// failing a test.
//
// The lint is purely syntactic (go/parser + go/ast, no type checker) and
// deliberately narrow: it flags
//
//   - calls to time.Now or time.Since through the "time" import, and
//   - range statements over an operand that is syntactically a map: a
//     map composite literal, a make(map[...]...) call, or an identifier
//     declared with an explicit map type or initialized from either form.
//
// A range over a map reached through an interface or a function result
// is invisible to it — the lint is a tripwire for the common regression,
// not a proof. CI runs it over both packages via TestDeterminismClean.
//
// The package also holds a dead-API check in the same syntactic style:
// UnusedExports flags exported functions under internal/ that nothing
// else in the module references. CI runs it via TestNoUnusedExports.
package detlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// Finding is one determinism violation.
type Finding struct {
	Pos  string // file:line:col
	Kind string // "time-now" or "map-range"
	Msg  string
}

func (f Finding) String() string { return fmt.Sprintf("%s: %s: %s", f.Pos, f.Kind, f.Msg) }

// CheckDir lints every non-test .go file in dir.
func CheckDir(dir string) ([]Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		fs, err := CheckSource(filepath.Join(dir, name), string(src))
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	return all, nil
}

// CheckSource lints one file's source text.
func CheckSource(filename, src string) ([]Finding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return nil, err
	}

	// The local name of the "time" import ("" if not imported; time.Now
	// through a renamed import is still caught).
	timeName := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "time" {
			continue
		}
		timeName = "time"
		if imp.Name != nil {
			timeName = imp.Name.Name
		}
	}

	var findings []Finding
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if timeName == "" {
				return true
			}
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != timeName || pkg.Obj != nil { // Obj != nil: a local shadowing "time"
				return true
			}
			if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
				findings = append(findings, Finding{
					Pos:  fset.Position(n.Pos()).String(),
					Kind: "time-now",
					Msg:  fmt.Sprintf("%s.%s reads the wall clock; deterministic code must take time as an input", timeName, sel.Sel.Name),
				})
			}
		case *ast.RangeStmt:
			if isSyntacticMap(n.X) {
				findings = append(findings, Finding{
					Pos:  fset.Position(n.Pos()).String(),
					Kind: "map-range",
					Msg:  "range over a map iterates in randomized order; extract and sort the keys",
				})
			}
		}
		return true
	})
	return findings, nil
}

// isSyntacticMap reports whether expr is a map by syntax alone: a map
// literal, a make(map...) call, or an identifier whose declaration (via
// the parser's file-scope object resolution) has an explicit map type or
// a map-shaped initializer.
func isSyntacticMap(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		return isMakeMap(e)
	case *ast.Ident:
		if e.Obj == nil {
			return false
		}
		switch decl := e.Obj.Decl.(type) {
		case *ast.ValueSpec: // var x map[K]V  /  var x = map[K]V{...}
			if _, ok := decl.Type.(*ast.MapType); ok {
				return true
			}
			for i, name := range decl.Names {
				if name.Name == e.Name && i < len(decl.Values) {
					return isMapInitializer(decl.Values[i])
				}
			}
		case *ast.AssignStmt: // x := make(map[K]V)  /  x := map[K]V{...}
			for i, lhs := range decl.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != e.Name || i >= len(decl.Rhs) {
					continue
				}
				return isMapInitializer(decl.Rhs[i])
			}
		case *ast.Field: // func f(x map[K]V)
			_, ok := decl.Type.(*ast.MapType)
			return ok
		}
	}
	return false
}

func isMapInitializer(expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.CompositeLit:
		_, ok := e.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		return isMakeMap(e)
	}
	return false
}

func isMakeMap(call *ast.CallExpr) bool {
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "make" || fn.Obj != nil || len(call.Args) == 0 {
		return false
	}
	_, ok = call.Args[0].(*ast.MapType)
	return ok
}
