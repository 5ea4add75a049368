// Package lint enforces the repo's own API conventions with a
// stdlib-only static analysis (go/parser + go/ast — no analysis
// framework dependency, so it runs in a hermetic build):
//
//   - no-context-background: request-path packages (internal/server)
//     must not call context.Background() outside tests; every operation
//     there runs under a request context with a deadline, and a
//     background context silently opts out of cancellation;
//   - missing-ctx-variant: an exported Run*/Compile*/Evaluate* entry
//     point that does not itself take a context must have a ...Ctx
//     sibling (a trailing Workers is stripped before the lookup, so
//     RunAllWorkers pairs with RunAllCtx), keeping every long-running
//     API cancellable;
//   - test-only-import: packages that exist only to serve tests (the
//     machine's reference oracle) must not be imported by any non-test
//     file anywhere in the repository, so test scaffolding never becomes
//     a production dependency.
//
// The companion test runs every rule over the repository source, making
// the conventions regressions instead of review comments.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one convention violation.
type Finding struct {
	File string
	Line int
	Rule string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Rule, f.Msg)
}

// Config selects which directories each rule applies to. Paths are
// relative to the root passed to Run.
type Config struct {
	// NoContextBackground: non-test files in these package directories
	// must not call context.Background().
	NoContextBackground []string
	// CtxVariant: exported Run*/Compile*/Evaluate* functions in these
	// package directories must have a ...Ctx variant.
	CtxVariant []string
	// TestOnlyImports: import paths that only _test.go files may
	// import, checked in every package under the root.
	TestOnlyImports []string
}

// entryPrefixes are the API families the ctx-variant rule covers.
var entryPrefixes = []string{"Run", "Compile", "Evaluate"}

// Run lints the configured directories under root and returns the
// findings sorted by file and line.
func Run(root string, cfg Config) ([]Finding, error) {
	var findings []Finding
	for _, dir := range cfg.NoContextBackground {
		fs, err := lintDir(root, dir, checkNoBackground)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	for _, dir := range cfg.CtxVariant {
		fs, err := lintDir(root, dir, checkCtxVariants)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	if len(cfg.TestOnlyImports) > 0 {
		fs, err := checkTestOnlyImports(root, cfg.TestOnlyImports)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].File != findings[j].File {
			return findings[i].File < findings[j].File
		}
		return findings[i].Line < findings[j].Line
	})
	return findings, nil
}

// lintDir parses every non-test .go file of one directory (no recursion
// — one directory is one package) and applies check to the file set.
func lintDir(root, dir string, check func(fset *token.FileSet, files map[string]*ast.File) []Finding) ([]Finding, error) {
	abs := filepath.Join(root, dir)
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(abs, name)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[filepath.Join(dir, name)] = f
	}
	return check(fset, files), nil
}

// checkNoBackground flags every context.Background() call.
func checkNoBackground(fset *token.FileSet, files map[string]*ast.File) []Finding {
	var out []Finding
	for rel, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Background" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "context" {
				out = append(out, Finding{
					File: rel, Line: fset.Position(call.Pos()).Line,
					Rule: "no-context-background",
					Msg:  "context.Background() in a request-path package: thread the request context instead",
				})
			}
			return true
		})
	}
	return out
}

// recvName returns the receiver's base type name ("" for plain funcs),
// so methods pair with methods on the same type.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// takesContext reports whether any parameter's type is context.Context.
func takesContext(fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, p := range fd.Type.Params.List {
		sel, ok := p.Type.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "context" && sel.Sel.Name == "Context" {
			return true
		}
	}
	return false
}

// checkCtxVariants flags exported Run*/Compile*/Evaluate* declarations
// with no context parameter and no ...Ctx sibling on the same receiver.
func checkCtxVariants(fset *token.FileSet, files map[string]*ast.File) []Finding {
	// one package: collect every function key first, then judge
	decls := map[string]bool{} // "Recv.Name"
	type entry struct {
		file string
		line int
		recv string
		name string
	}
	var candidates []entry
	for rel, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			recv := recvName(fd)
			name := fd.Name.Name
			decls[recv+"."+name] = true
			if !fd.Name.IsExported() || strings.HasSuffix(name, "Ctx") || takesContext(fd) {
				continue
			}
			for _, prefix := range entryPrefixes {
				if strings.HasPrefix(name, prefix) {
					candidates = append(candidates, entry{rel, fset.Position(fd.Pos()).Line, recv, name})
					break
				}
			}
		}
	}
	var out []Finding
	for _, c := range candidates {
		base := strings.TrimSuffix(c.name, "Workers")
		if decls[c.recv+"."+c.name+"Ctx"] || decls[c.recv+"."+base+"Ctx"] {
			continue
		}
		what := c.name
		if c.recv != "" {
			what = c.recv + "." + c.name
		}
		out = append(out, Finding{
			File: c.file, Line: c.line,
			Rule: "missing-ctx-variant",
			Msg:  fmt.Sprintf("exported entry point %s has no %sCtx variant: long-running APIs must be cancellable", what, base),
		})
	}
	return out
}

// checkTestOnlyImports flags every import of a test-only path from a
// non-test .go file under root. Directories the go tool ignores —
// testdata and names starting with "." or "_" — are skipped.
func checkTestOnlyImports(root string, paths []string) ([]Finding, error) {
	testOnly := map[string]bool{}
	for _, p := range paths {
		testOnly[p] = true
	}
	var out []Finding
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !testOnly[p] {
				continue
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out = append(out, Finding{
				File: rel, Line: fset.Position(imp.Pos()).Line,
				Rule: "test-only-import",
				Msg:  fmt.Sprintf("%s is test-only: import it from _test.go files only", p),
			})
		}
		return nil
	})
	return out, err
}
