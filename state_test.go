package anex

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// packageVarAllowlist names every package-level variable internal/ may
// declare, keyed "package.name", with the reason it is not shared mutable
// state a test would have to save and restore.
var packageVarAllowlist = map[string]string{
	"neighbors.sqBlocks":    "sync.Pool of scratch buffers: reuse only, no value survives a Get",
	"dataset.nextDatasetID": "atomic counter that makes cache keys process-unique; no result depends on its value",
	"durable.castagnoli":    "read-only CRC-32C table, built once at init",
	"plot.shades":           "read-only density glyphs",
	"synth.gridLevels":      "read-only generator constants",
}

// TestNoPackageLevelMutableState keeps internal/ free of process-global
// state: every package-level var outside the allowlist fails, except
// sentinel errors (var ErrX = errors.New(…)) and interface assertions
// (var _ I = …). Configuration and fault sets travel as values instead.
func TestNoPackageLevelMutableState(t *testing.T) {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					key := f.Name.Name + "." + name.Name
					switch {
					case name.Name == "_":
					case strings.HasPrefix(name.Name, "Err") && i < len(vs.Values) && isErrorsNew(vs.Values[i]):
					case packageVarAllowlist[key] != "":
						seen[key] = true
					default:
						t.Errorf("%s: package-level var %s is process-global state; pass it as a value or add it to packageVarAllowlist with a reason", fset.Position(name.Pos()), key)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range packageVarAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s matches no declaration; drop it", key)
		}
	}
}

func isErrorsNew(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "errors" && sel.Sel.Name == "New"
}
