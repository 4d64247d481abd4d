package main

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"
)

// TestOnlyMicaViewsRegions makes the region-view rule a checked fact: no
// non-test code outside internal/mica and internal/memory names
// memory.Region's ReadView or WriteView, called or as a method value. A
// view is the region's bytes in place, live for as long as it is held, so
// it belongs only to the store that keeps records in place; code that
// builds or parses a message moves its bytes with ByteAt, ReadAt and
// WriteAt instead. And a write through a held view does not move the
// region's write generation (Region.Gen), which rpcwire.Pool.Valid trusts
// to skip re-reading a Valid byte that read clear. TranslateRemote with
// write=true is a WriteView; its only caller is benchmark/probes.go.
func TestOnlyMicaViewsRegions(t *testing.T) {
	mod := checkModule(t)
	tests := map[*ast.File]bool{}
	for _, p := range mod.pkgs {
		for _, f := range append(append([]*ast.File(nil), p.tests...), p.xtests...) {
			tests[f] = true
		}
	}
	allowed := map[string]bool{filepath.Join("internal", "mica"): true, filepath.Join("internal", "memory"): true}
	var seen int
	for _, u := range mod.units {
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := u.info.Selections[sel]
				if s == nil || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "scalerpc/internal/memory" {
					return true
				}
				if name := s.Obj().Name(); name != "ReadView" && name != "WriteView" {
					return true
				}
				seen++
				at := mod.fset.Position(sel.Pos())
				if !tests[f] && !allowed[filepath.Dir(at.Filename)] {
					t.Errorf("%s: %s views region bytes outside internal/mica: a view is live for as long as it is held, and a write through it does not move Region.Gen, which pool probes trust; use ByteAt, ReadAt or WriteAt", at, types.ExprString(sel))
				}
				return true
			})
		}
	}
	if seen == 0 {
		t.Fatal("found no ReadView or WriteView use at all")
	}
}
