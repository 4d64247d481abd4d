package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modelledCosts are the exported config fields that no product caller sets
// and that stay settable anyway: they model the hardware, ROADMAP item 13's
// cost sheet perturbs every modelled cost and geometry value from one
// place, and unit tests shrink them, so they are not folded into
// constants. Nothing else may be listed here.
var modelledCosts = map[string]bool{
	"cluster.Config.Host":   true,
	"cluster.Config.NIC":    true,
	"cluster.Config.PCIe":   true,
	"cluster.Config.Fabric": true,
	"host.Config.LLC":       true,
	"host.Config.Cores":     true,

	"cachesim.Config.SizeBytes": true,
	"cachesim.Config.Ways":      true,
	"cachesim.Config.DDIOWays":  true,
	"cachesim.Config.LineSize":  true,

	"fabric.Config.BandwidthGbps":     true,
	"fabric.Config.SwitchLatency":     true,
	"fabric.Config.WireOverheadBytes": true,

	"octofs.Config.LookupCost": true,
	"octofs.Config.UpdateCost": true,
	"octofs.Config.MaxInodes":  true,

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
	"nic.Config.CQDepth":          true,
	"nic.Config.TornWriteDelay":   true,

	"scalerpc.ServerConfig.ParseCost":      true,
	"rawrpc.ServerConfig.ParseCost":        true,
	"herdrpc.ServerConfig.ParseCost":       true,
	"herdrpc.ServerConfig.ClientOverhead":  true,
	"fasstrpc.ServerConfig.ParseCost":      true,
	"fasstrpc.ServerConfig.ClientOverhead": true,
	"selfrpc.ServerConfig.ParseCost":       true,
}

// keptKnobs are policy fields that no product caller sets but that cannot
// become constants without changing what a test checks; each names the
// test that needs it. A test in another package cannot reach an unexported
// value, and the benchmark is not edited alongside the program, so only
// their needs are listed.
var keptKnobs = map[string]string{
	// A slow handler must stay on the worker, as in the baselines: in legacy
	// mode the worker frees the pool block at hand-off, and the overwriting
	// frame is served as a request of its own.
	"scalerpc.ServerConfig.LegacyThreshold": "table2.TestServeSnapshotSurvivesOverwrite/scalerpc",
	// Every message on a link must be the test's own, and a crashed
	// client must be given up by its lease alone, not by a probe's QP error.
	"scalerpc.ServerConfig.ProbeSlices": "table2.TestCorruptRequestCountedNotServed/scalerpc, table2.TestCorruptResponseCountedNotDelivered/scalerpc, rpctest.TestMembershipLifecycle/scalerpc",
	// The benchmark's smallbank_shard4 output check reads the field to
	// compute the balance the stores must hold.
	"smallbank.Config.InitialBalance": "benchmark/workloads.go (TestSmoke/smallbank_shard4)",
}

// TestEveryKnobHasACaller keeps the configuration surface honest: every
// exported field of a struct named *Config, *Opts, *Options or *Policy
// declared in non-test code under internal/ must be set by a product
// caller, as a composite-literal key or the selector on the left of an
// assignment, in a non-test file outside examples/ and outside a Default*
// function. Inside a Default* function only a value taken straight from one
// of its parameters counts: the caller chose it. Tests and examples are not
// callers: a value only they set is a constant with extra steps, and a
// test that needs another value sets an unexported one through its
// package's export_test.go.
//
// Writes are resolved with go/types to the field they set, so a field
// shared by name across config types (HERD's and FaSST's Workers) is not
// hidden by a caller that sets its namesake.
func TestEveryKnobHasACaller(t *testing.T) {
	mod := checkModule(t)

	knobs := map[token.Pos]string{} // field declaration → "pkg.Type.Field"
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.path, "scalerpc/internal/") {
			continue
		}
		sc := p.plain.Scope()
		for _, name := range sc.Names() {
			tn, ok := sc.Lookup(name).(*types.TypeName)
			if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Opts") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					knobs[f.Pos()] = p.plain.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}
	if len(knobs) == 0 {
		t.Fatal("found no config structs under internal/")
	}

	set := map[token.Pos]bool{}
	for _, u := range mod.units {
		for _, f := range u.files {
			if name := mod.fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") || strings.HasPrefix(filepath.ToSlash(name), "examples/") {
				continue
			}
			for _, d := range f.Decls {
				// counts reports whether a write of value counts as a
				// caller's: always, except in a Default* function, where the
				// value must be one of the function's parameters.
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
							if v, ok := u.info.Uses[id].(*types.Var); ok && v.IsField() {
								set[v.Pos()] = true
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							var v ast.Expr // nil when one call fills several values
							if len(n.Rhs) == len(n.Lhs) {
								v = n.Rhs[i]
							}
							if !counts(v) {
								continue
							}
							// cfg.NIC.CQDepth = v sets CQDepth and turns
							// the NIC knob too: mark every field on the path.
							sel, ok := lhs.(*ast.SelectorExpr)
							for ok {
								if s := u.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
									set[s.Obj().Pos()] = true
								}
								sel, ok = sel.X.(*ast.SelectorExpr)
							}
						}
					}
					return true
				})
			}
		}
	}

	var unset []string
	flagged := map[string]bool{}
	for pos, w := range knobs {
		if set[pos] {
			continue
		}
		flagged[w] = true
		if !modelledCosts[w] && keptKnobs[w] == "" {
			unset = append(unset, w)
		}
	}
	sort.Strings(unset)
	for _, w := range unset {
		t.Errorf("%s: no product caller sets it; make it a constant", w)
	}
	t.Logf("%d config fields checked", len(knobs))
	for w := range modelledCosts {
		if !flagged[w] {
			t.Errorf("%s: exempt as a modelled cost but set by a caller or gone; drop it from modelledCosts", w)
		}
	}
	for w := range keptKnobs {
		if !flagged[w] {
			t.Errorf("%s: kept for a test but set by a caller or gone; drop it from keptKnobs", w)
		}
	}
}

// modPkg is one directory of the module: its import path, its files split
// the way `go test` builds them, and the package as other packages import
// it (non-test files only).
type modPkg struct {
	path                 string
	files, tests, xtests []*ast.File
	plain                *types.Package
}

// checkUnit is one type-checked set of files with the uses and selections
// a write resolves through.
type checkUnit struct {
	files []*ast.File
	info  *types.Info
}

type module struct {
	fset  *token.FileSet
	pkgs  map[string]*modPkg
	units []checkUnit
}

// checkModule parses every Go file in the module and type-checks each
// directory as `go test` would see it: the package with its in-package
// test files, and the external test package against that. The standard
// library is type-checked from source, so nothing is built or fetched.
func checkModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	mod := &module{fset: fset, pkgs: map[string]*modPkg{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		ip := path.Join("scalerpc", filepath.ToSlash(filepath.Dir(p)))
		mp := mod.pkgs[ip]
		if mp == nil {
			mp = &modPkg{path: ip}
			mod.pkgs[ip] = mp
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			mp.files = append(mp.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			mp.xtests = append(mp.xtests, f)
		default:
			mp.tests = append(mp.tests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A package is checked twice when it has tests: as its importers see it,
	// and with its test files. Packages its tests import still see the
	// first, so the second reports type mismatches `go test` would not (it
	// rebuilds them against the test variant). Those errors are dropped:
	// both checks share one parse, so a field resolves to the same
	// declaration position either way, and an unresolved write could only
	// flag a knob, never hide one.
	std := importer.ForCompiler(fset, "source", nil)
	check := func(path string, files []*ast.File, info *types.Info, imp importerFunc, report func(error)) *types.Package {
		conf := types.Config{Importer: imp, Error: report}
		pkg, _ := conf.Check(path, fset, files, info)
		return pkg
	}
	drop := func(error) {}
	var plain importerFunc
	plain = func(path string) (*types.Package, error) {
		mp := mod.pkgs[path]
		if mp == nil {
			return std.Import(path)
		}
		if mp.plain == nil {
			mp.plain = check(path, mp.files, nil, plain, func(err error) { t.Error(err) })
		}
		return mp.plain, nil
	}
	paths := make([]string, 0, len(mod.pkgs))
	for p := range mod.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		mp := mod.pkgs[p]
		plain(p)
		full := checkUnit{files: append(append([]*ast.File(nil), mp.files...), mp.tests...), info: newInfo()}
		underTest := check(p, full.files, full.info, plain, drop)
		mod.units = append(mod.units, full)
		if len(mp.xtests) > 0 {
			x := checkUnit{files: mp.xtests, info: newInfo()}
			check(p+"_test", x.files, x.info, func(path string) (*types.Package, error) {
				if path == p {
					return underTest, nil
				}
				return plain(path)
			}, drop)
			mod.units = append(mod.units, x)
		}
	}
	return mod
}

func newInfo() *types.Info {
	return &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
