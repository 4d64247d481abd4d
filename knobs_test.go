package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modelledCosts are the exported config fields that no caller sets and that
// stay settable anyway: ROADMAP item 13's cost sheet perturbs every
// modelled cost and geometry value from one place, so they are not folded
// into constants. Nothing else may be listed here.
var modelledCosts = map[string]bool{
	"cluster.Config.PCIe": true,

	"host.Config.BaseOpCost":  true,
	"host.Config.LLCHitCost":  true,
	"host.Config.MemReadCost": true,

	"nic.Config.QPCCacheEntries":  true,
	"nic.Config.WQECacheEntries":  true,
	"nic.Config.MTTCacheEntries":  true,
	"nic.Config.CacheMissStall":   true,
	"nic.Config.OutboundBaseCost": true,
	"nic.Config.OutboundUDExtra":  true,
	"nic.Config.InboundWriteCost": true,
	"nic.Config.InboundReadCost":  true,
	"nic.Config.InboundSendCost":  true,
	"nic.Config.InboundAckCost":   true,
	"nic.Config.AtomicCost":       true,
	"nic.Config.MaxInline":        true,
	"nic.Config.MaxMsg":           true,
	"nic.Config.UDMTU":            true,
	"nic.Config.CreateQPCost":     true,
	"nic.Config.ModifyInitCost":   true,
	"nic.Config.ModifyRTRCost":    true,
	"nic.Config.ModifyRTSCost":    true,

	"scalerpc.ServerConfig.ParseCost":      true,
	"rawrpc.ServerConfig.ParseCost":        true,
	"herdrpc.ServerConfig.ParseCost":       true,
	"herdrpc.ServerConfig.ClientOverhead":  true,
	"fasstrpc.ServerConfig.ParseCost":      true,
	"fasstrpc.ServerConfig.ClientOverhead": true,
	"selfrpc.ServerConfig.ParseCost":       true,
}

// TestEveryKnobHasACaller keeps the configuration surface honest: every
// exported field of a struct named *Config, *Opts or *Options declared in
// non-test code under internal/ must be set by some caller, as a
// composite-literal key or the selector on the left of an assignment,
// somewhere in the module outside a Default* function. Inside a Default*
// function only a value taken straight from one of its parameters counts:
// the caller chose it. A value nobody sets is a constant with extra steps.
func TestEveryKnobHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []*ast.File // non-test files under internal/
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, f)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") && !strings.HasSuffix(path, "_test.go") {
			decls = append(decls, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	knobs := map[string][]string{} // field name → "pkg.Type.Field" declarations
	for _, f := range decls {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, s := range gd.Specs {
				ts := s.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts") || strings.HasSuffix(name, "Options")) {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							knobs[id.Name] = append(knobs[id.Name], f.Name.Name+"."+name+"."+id.Name)
						}
					}
				}
			}
		}
	}
	if len(knobs) == 0 {
		t.Fatal("found no config structs under internal/")
	}

	set := map[string]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			// counts reports whether a write of value counts as a caller's:
			// always, except in a Default* function, where the value must
			// be one of the function's parameters.
			counts := func(ast.Expr) bool { return true }
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Default") {
				params := map[string]bool{}
				for _, p := range fd.Type.Params.List {
					for _, id := range p.Names {
						params[id.Name] = true
					}
				}
				counts = func(v ast.Expr) bool {
					id, ok := v.(*ast.Ident)
					return ok && params[id.Name]
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok && counts(n.Value) {
						set[id.Name] = true
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var v ast.Expr // nil when one call fills several values
						if len(n.Rhs) == len(n.Lhs) {
							v = n.Rhs[i]
						}
						if sel, ok := lhs.(*ast.SelectorExpr); ok && counts(v) {
							set[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
		}
	}

	var unset []string
	flagged := map[string]bool{}
	for field, where := range knobs {
		if set[field] {
			continue
		}
		for _, w := range where {
			flagged[w] = true
			if !modelledCosts[w] {
				unset = append(unset, w)
			}
		}
	}
	sort.Strings(unset)
	for _, w := range unset {
		t.Errorf("%s: no caller sets it; make it a constant", w)
	}
	for w := range modelledCosts {
		if !flagged[w] {
			t.Errorf("%s: exempt as a modelled cost but set by a caller or gone; drop it from modelledCosts", w)
		}
	}
}
