package main

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"testing"
)

// TestNoProductCodeTranslatesRemote makes the region-bytes rule a checked
// fact: no non-test code names memory.Registry's TranslateRemote, called
// or as a method value, apart from the translation-cost probe in
// benchmark/probes.go. Its view is a unit's bytes in place, live for as
// long as it is held, and a write through it does not move the region's
// write generation (Region.Gen), which rpcwire.Pool.Valid trusts to skip
// re-reading a Valid byte that read clear. Everything else moves region
// bytes with ByteAt, ReadAt and WriteAt.
func TestNoProductCodeTranslatesRemote(t *testing.T) {
	mod := checkModule(t)
	tests := map[*ast.File]bool{}
	for _, p := range mod.pkgs {
		for _, f := range append(append([]*ast.File(nil), p.tests...), p.xtests...) {
			tests[f] = true
		}
	}
	var seen int
	for _, u := range mod.units {
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := u.info.Selections[sel]
				if s == nil || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "scalerpc/internal/memory" || s.Obj().Name() != "TranslateRemote" {
					return true
				}
				seen++
				if at := mod.fset.Position(sel.Pos()); !tests[f] && filepath.Dir(at.Filename) != "benchmark" {
					t.Errorf("%s: %s hands out region bytes in place: a view is live for as long as it is held, and a write through it does not move Region.Gen, which pool probes trust; use RemoteRegion with ByteAt, ReadAt or WriteAt", at, types.ExprString(sel))
				}
				return true
			})
		}
	}
	if seen == 0 {
		t.Fatal("found no TranslateRemote use at all")
	}
}
