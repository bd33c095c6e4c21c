package accesys_bench

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

// exportAllowlist names the exported functions and methods under
// internal/ that may lack a production caller, each with its reason.
// Keys are "<package dir>.<name>" or "<package dir>.<receiver>.<name>";
// "<package dir>.*" covers every export of that package. An entry
// that no longer excuses anything fails the test too.
var exportAllowlist = map[string]string{
	"internal/memtest.*":                    "test-support package: tests are its only callers by design",
	"internal/stats.Registry.Dump":          "scenario determinism tests compare two runs' full statistics with it until exact goldens (ROADMAP 13) replace it",
	"internal/mem.Packets.Leased":           "scenario tests check that a GEMM leases packets and returns each one",
	"internal/mem.Packets.Released":         "scenario tests check that a GEMM leases packets and returns each one",
	"internal/mem.Packet.RouteDepth":        "interconnect tests check that a response's route stack unwinds",
	"internal/driver.Driver.MSIAddr":        "core cluster tests check each member's MSI doorbell lies in host memory",
	"internal/scenario.Run.Label":           "explore tests check by a run's packet_bytes label that a constrained point was never evaluated",
	"internal/equiv.Comparison.MarshalJSON": "encoding/json calls it",
}

// TestEveryExportHasAProductionCaller fails on any exported function or
// method declared under internal/ whose name is used nowhere in the
// non-test sources of internal/, cmd/, examples/ and perfbench/ outside
// its own declaration. The match is by name, so it errs towards
// passing: a name any other declaration also uses counts as used.
func TestEveryExportHasAProductionCaller(t *testing.T) {
	type decl struct {
		pkg, recv, name string
		pos             token.Position
		start, end      token.Pos
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
	for _, root := range []string{"internal", "cmd", "examples", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					uses[id.Name] = append(uses[id.Name], id.Pos())
				}
				return true
			})
			if root != "internal" {
				return nil
			}
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				recv := ""
				if fn.Recv != nil {
					typ := fn.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						recv = id.Name + "."
					}
				}
				decls = append(decls, decl{filepath.ToSlash(filepath.Dir(path)), recv, fn.Name.Name,
					fset.Position(fn.Pos()), fn.Pos(), fn.End()})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	excused := map[string]bool{}
	var unused []string
	for _, d := range decls {
		used := false
		for _, p := range uses[d.name] {
			if p < d.start || p >= d.end {
				used = true
				break
			}
		}
		if used {
			continue
		}
		key := d.pkg + "." + d.recv + d.name
		switch {
		case exportAllowlist[key] != "":
			excused[key] = true
		case exportAllowlist[d.pkg+".*"] != "":
			excused[d.pkg+".*"] = true
		default:
			unused = append(unused, key+" ("+d.pos.String()+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported with no production caller: %s", u)
	}
	for key := range exportAllowlist {
		if !excused[key] {
			t.Errorf("allowlist entry %s excuses nothing: drop it", key)
		}
	}
}
