package detlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
)

// unusedAllow is the explicit allowlist of the unused-export check: API
// that tests reach and nothing else does, kept on purpose. Entries are
// "pkg.Func" or "pkg.Type.Method"; an entry naming no declared exported
// function is itself a finding, so the list cannot outlive its API.
var unusedAllow = []string{
	"experiments.Fig3Incompressible",
	"flowgraph.Arena.Bytes",
	"flowgraph.Graph.AddValueNode",
	"flowgraph.Graph.InDegree",
	"flowgraph.Graph.OutDegree",
	"flowgraph.Graph.TotalSinkCapacity",
	"flowgraph.Graph.Validate",
	"kraft.MinConsistentUniform",
	"stagecache.Stats.KindNames",
	"static.ClassifyWrites",
	"static.CountWrites",
	"static.FuncCFG.BlockAt",
	"taint.Tracker.ArenaBytes",
	"unionfind.UF.Sets",
	"vm.Machine.StoreWord",
}

// stdMethods are method names the standard library calls through its own
// interfaces (errors, fmt, encoding/json, net/http, sort and heap, io), so a
// method of that name is in use without any reference in the module.
var stdMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true, "RoundTrip": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// UnusedExports lints the Go module rooted at root for dead API: an
// exported function or method declared in a non-test file under
// root/internal whose name has no reference in any other Go file under
// root, tests and the benchmark included. Like the determinism checks it
// is syntactic and matches names, not objects: any identifier spelling
// the name counts as a reference, except declared function names and
// struct field names, and interface method names count, so a method
// called only through an interface stays in use. A name used only in its
// own file is flagged: it need not be exported. Methods the standard
// library calls (stdMethods) and the entries of allow are exempt.
func UnusedExports(root string, allow []string) ([]Finding, error) {
	type decl struct {
		key, name, file string
		method          bool
		pos             token.Position
	}
	var decls []decl
	refs := map[string]map[string]bool{} // name → files that reference it
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		declares := strings.HasPrefix(filepath.ToSlash(rel), "internal/") && !strings.HasSuffix(path, "_test.go")
		names := map[*ast.Ident]bool{} // declaration sites, not references
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name] = true
				if declares && n.Name.IsExported() {
					decls = append(decls, decl{funcKey(f.Name.Name, n), n.Name.Name, rel, n.Recv != nil, fset.Position(n.Pos())})
				}
			case *ast.StructType:
				for _, field := range n.Fields.List {
					for _, id := range field.Names {
						names[id] = true
					}
				}
			case *ast.Ident:
				if !names[n] {
					if refs[n.Name] == nil {
						refs[n.Name] = map[string]bool{}
					}
					refs[n.Name][rel] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	allowed := map[string]bool{}
	for _, k := range allow {
		allowed[k] = true
	}
	declared := map[string]bool{}
	var findings []Finding
	for _, d := range decls {
		declared[d.key] = true
		if allowed[d.key] || d.method && stdMethods[d.name] {
			continue
		}
		files := refs[d.name]
		if len(files) > 1 || len(files) == 1 && !files[d.file] {
			continue
		}
		findings = append(findings, Finding{
			Pos:  d.pos.String(),
			Kind: "unused-export",
			Msg:  fmt.Sprintf("%s has no reference outside its own file; delete or unexport it", d.key),
		})
	}
	for _, k := range allow {
		if !declared[k] {
			findings = append(findings, Finding{
				Pos:  "allowlist",
				Kind: "unused-export",
				Msg:  fmt.Sprintf("allowlist entry %s names no exported function under internal/", k),
			})
		}
	}
	return findings, nil
}

// funcKey names a declared function "pkg.Func" or method "pkg.Type.Method".
func funcKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return pkg + "." + fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return pkg + "." + id.Name + "." + fn.Name.Name
	}
	return pkg + "." + fn.Name.Name // a generic receiver: keyed by method alone
}
