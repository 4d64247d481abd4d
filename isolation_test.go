package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestPackageStateIsWrittenOnlyAtInit makes cell isolation a checked fact:
// no package-level variable declared under internal/ may be written by
// non-test code except during package initialisation, in an init function
// or in a helper whose every caller is an init function, a package-level
// initialiser or another such helper (bench.register). Then every
// simulation builds its whole world from its own arguments, and two runs in
// one process can share nothing but code.
//
// A write is an assignment (plain, op= or ++/--) to the variable or to
// anything reached through it (x[i], x.f, *x), or taking its address,
// explicitly or through a pointer-receiver method call, which hands
// someone else the means to write it. Writes in _test.go files are free.
func TestPackageStateIsWrittenOnlyAtInit(t *testing.T) {
	mod := checkModule(t)

	vars := map[token.Pos]string{} // declaration → "pkg.name"
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.path, "scalerpc/internal/") {
			continue
		}
		sc := p.plain.Scope()
		for _, name := range sc.Names() {
			if v, ok := sc.Lookup(name).(*types.Var); ok && name != "_" {
				vars[v.Pos()] = p.plain.Name() + "." + name
			}
		}
	}
	if len(vars) == 0 {
		t.Fatal("found no package-level variables under internal/")
	}
	tests := map[*ast.File]bool{}
	for _, p := range mod.pkgs {
		for _, f := range append(append([]*ast.File(nil), p.tests...), p.xtests...) {
			tests[f] = true
		}
	}

	// Each top-level declaration is a context: where a function is used and
	// where a variable is written. A context is init time ("init"), a test
	// ("test"), a package-level function that runs at init time only if all
	// its callers do ("func"), or code that may run at any time ("run").
	type context struct {
		kind string
		fn   token.Pos // the function's declaration, for kind "func"
		name string
	}
	contextOf := func(f *ast.File, d ast.Decl) context {
		if tests[f] {
			return context{kind: "test"}
		}
		fd, ok := d.(*ast.FuncDecl)
		switch {
		case !ok:
			return context{kind: "init", name: "a package-level initialiser"}
		case fd.Recv != nil:
			return context{kind: "run", name: fd.Name.Name}
		case fd.Name.Name == "init":
			return context{kind: "init"}
		}
		return context{kind: "func", fn: fd.Name.Pos(), name: fd.Name.Name}
	}

	type write struct {
		v   string
		ctx context
		at  token.Position
	}
	var writes []write
	uses := map[token.Pos][]context{} // function declaration → contexts using it
	called := map[*ast.Ident]bool{}   // function names in call position
	for _, u := range mod.units {
		// root is the package-level variable an lvalue writes, if any.
		root := func(e ast.Expr) token.Pos {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.SelectorExpr:
					if s := u.info.Selections[x]; s != nil {
						e = x.X // a field of something
						continue
					}
					e = x.Sel // a package-qualified name
				case *ast.Ident:
					if v, ok := u.info.Uses[x].(*types.Var); ok && vars[v.Pos()] != "" {
						return v.Pos()
					}
					return token.NoPos
				default:
					return token.NoPos
				}
			}
		}
		// visit records, under ctx, the writes and function uses below a node.
		var visit func(ctx context) func(ast.Node) bool
		visit = func(ctx context) func(ast.Node) bool {
			wrote := func(e ast.Expr) {
				if p := root(e); p.IsValid() && ctx.kind != "test" {
					writes = append(writes, write{vars[p], ctx, mod.fset.Position(e.Pos())})
				}
			}
			return func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					if ctx.kind == "init" {
						// A function value built during initialisation
						// runs whenever it is called.
						ast.Inspect(n.Body, visit(context{kind: "run", name: "a function literal"}))
						return false
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							wrote(l)
						}
					}
				case *ast.IncDecStmt:
					wrote(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						wrote(n.X)
					}
				case *ast.SelectorExpr:
					// x.M() with a pointer receiver on an addressable x
					// takes x's address implicitly.
					if s := u.info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
						recv := s.Obj().Type().(*types.Signature).Recv().Type()
						_, ptrRecv := recv.(*types.Pointer)
						_, ptrX := s.Recv().(*types.Pointer)
						if ptrRecv && !ptrX {
							wrote(n.X)
						}
					}
				case *ast.CallExpr:
					switch f := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						called[f] = true
					case *ast.SelectorExpr:
						called[f.Sel] = true
					}
				case *ast.Ident:
					if fn, ok := u.info.Uses[n].(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil {
						// A function used as a value may be called at any time.
						c := ctx
						if !called[n] {
							c = context{kind: "run"}
						}
						uses[fn.Pos()] = append(uses[fn.Pos()], c)
					}
				}
				return true
			}
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				ast.Inspect(d, visit(contextOf(f, d)))
			}
		}
	}

	// initOnly reports whether a function runs only during initialisation:
	// it is used at all, and only from init time or from functions that
	// themselves run only then.
	memo := map[token.Pos]bool{}
	var initOnly func(fn token.Pos) bool
	initOnly = func(fn token.Pos) bool {
		if v, ok := memo[fn]; ok {
			return v
		}
		memo[fn] = false // a cycle with no init-time entry never runs at init
		ok := len(uses[fn]) > 0
		for _, c := range uses[fn] {
			ok = ok && (c.kind == "init" || c.kind == "func" && initOnly(c.fn))
		}
		memo[fn] = ok
		return ok
	}

	var bad []string
	for _, w := range writes {
		if w.ctx.kind == "init" || w.ctx.kind == "func" && initOnly(w.ctx.fn) {
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: %s is written by %s, which may run after initialisation", w.at, w.v, w.ctx.name))
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
