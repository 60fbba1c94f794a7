// Package docs holds repository-wide documentation enforcement: its test
// fails the build when an exported identifier of the public facade (dftsp),
// the persistence and serving layers (internal/store, internal/jobs,
// internal/telemetry, internal/shardrpc), the simulation layers
// (internal/sim, internal/decoder, internal/noise) or the synthesis layers
// (internal/code, internal/correct, internal/core, internal/f2,
// internal/verify, internal/sat, internal/cnf, internal/prep) lacks a doc
// comment, which is what keeps "every exported identifier is documented"
// true over time instead of being a one-off cleanup. A second test keeps
// the CI workflow's name-selected steps (-run and -fuzz patterns) matching
// tests that exist. CI runs both as part of the docs job.
package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkedPackages are the directories (relative to this package) whose
// exported identifiers must carry doc comments.
var checkedPackages = []string{
	"../../dftsp",
	"../../internal/store",
	"../../internal/jobs",
	"../../internal/telemetry",
	"../../internal/shardrpc",
	"../../internal/sim",
	"../../internal/decoder",
	"../../internal/noise",
	"../../internal/code",
	"../../internal/correct",
	"../../internal/core",
	"../../internal/f2",
	"../../internal/verify",
	"../../internal/sat",
	"../../internal/cnf",
	"../../internal/prep",
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range checkedPackages {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			for _, miss := range undocumented(t, dir) {
				t.Errorf("%s: exported %s has no doc comment", miss.pos, miss.name)
			}
		})
	}
}

type missing struct {
	pos  string
	name string
}

// undocumented parses every non-test file of dir and returns the exported
// top-level identifiers (types, functions, methods, consts, vars) that have
// no doc comment. For grouped const/var/type declarations a comment on the
// group is accepted for all its members, matching godoc rendering.
func undocumented(t *testing.T, dir string) []missing {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	var out []missing
	report := func(pos token.Pos, name string) {
		out = append(out, missing{pos: fset.Position(pos).String(), name: name})
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), funcName(d))
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return out
}

// receiverExported reports whether a method's receiver type is exported
// (methods on unexported types are not part of the API surface).
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true // plain function
	}
	name := receiverTypeName(d.Recv.List[0].Type)
	return name == "" || ast.IsExported(name)
}

func receiverTypeName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return receiverTypeName(e.X)
	case *ast.IndexExpr: // generic receiver
		return receiverTypeName(e.X)
	}
	return ""
}

func funcName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		if r := receiverTypeName(d.Recv.List[0].Type); r != "" {
			return r + "." + d.Name.Name
		}
	}
	return d.Name.Name
}

// checkGenDecl validates a const/var/type declaration: each exported name
// needs a doc comment on its own spec or on the enclosing group.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(name.Pos(), name.Name)
				}
			}
		}
	}
}
