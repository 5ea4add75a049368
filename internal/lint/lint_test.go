package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// RepoConfig is the configuration the repo holds itself to; the CI job
// runs this test, so a convention break fails the build.
var repoConfig = Config{
	NoContextBackground: []string{"internal/server"},
	CtxVariant:          []string{".", "internal/experiments"},
	TestOnlyImports:     []string{"repro/internal/machine/oracle"},
}

// TestRepoIsClean lints the repository's own source. Zero findings is
// the contract: every Run*/Compile*/Evaluate* entry point has a Ctx
// variant, the server never detaches from the request context, and only
// tests import the machine oracle.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root, repoConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// writeFixture materializes a tiny package in a temp dir.
func writeFixture(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRulesFire proves every rule actually detects its targets (a
// linter that can't fail is worse than none) and that the documented
// escapes — Ctx sibling, Workers-stripped sibling, direct ctx param,
// test files, testdata — suppress them.
func TestRulesFire(t *testing.T) {
	root := t.TempDir()
	writeFixture(t, filepath.Join(root, "srv"), "srv.go", `package srv

import "context"

func handle() {
	ctx := context.Background() // violation: no-context-background
	_ = ctx
}
`)
	writeFixture(t, filepath.Join(root, "srv"), "srv_test.go", `package srv

import "context"

func helper() { _ = context.Background() } // test file: exempt
`)
	writeFixture(t, filepath.Join(root, "api"), "api.go", `package api

import "context"

type T struct{}

func RunBad() {}                                  // violation: no Ctx variant
func (t *T) CompileBad() {}                       // violation: method, no Ctx variant
func RunGood() {}                                 // ok: sibling below
func RunGoodCtx(ctx context.Context) {}           // the sibling
func RunPoolWorkers() {}                          // ok: Workers strips to RunPoolCtx
func RunPoolCtx(ctx context.Context) {}           // the stripped sibling
func EvaluateDirect(ctx context.Context) {}       // ok: takes ctx itself
func runLower() {}                                // ok: unexported
func Render() {}                                  // ok: prefix not covered
`)

	const oracle = `import _ "example.com/m/oracle"`
	writeFixture(t, filepath.Join(root, "app", "deep"), "app.go", "package deep\n\n"+oracle+" // violation: test-only-import\n")
	writeFixture(t, filepath.Join(root, "app", "deep"), "app_test.go", "package deep\n\n"+oracle+" // test file: exempt\n")
	writeFixture(t, filepath.Join(root, "app", "testdata"), "fixture.go", "package fixture\n\n"+oracle+" // testdata: skipped\n")

	findings, err := Run(root, Config{
		NoContextBackground: []string{"srv"},
		CtxVariant:          []string{"api"},
		TestOnlyImports:     []string{"example.com/m/oracle"},
	})
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"no-context-background": filepath.Join("srv", "srv.go"),
		"missing-ctx-variant":   filepath.Join("api", "api.go"),
		"test-only-import":      filepath.Join("app", "deep", "app.go"),
	}
	got := map[string]int{}
	for _, f := range findings {
		got[f.Rule]++
		if wantFile, ok := want[f.Rule]; !ok || f.File != wantFile {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if got["no-context-background"] != 1 {
		t.Errorf("no-context-background: got %d findings, want 1", got["no-context-background"])
	}
	if got["missing-ctx-variant"] != 2 {
		t.Errorf("missing-ctx-variant: got %d findings, want 2", got["missing-ctx-variant"])
	}
	if got["test-only-import"] != 1 {
		t.Errorf("test-only-import: got %d findings, want 1", got["test-only-import"])
	}
}

// TestMissingDir ensures a misconfigured directory is an error, not a
// silent pass.
func TestMissingDir(t *testing.T) {
	if _, err := Run(t.TempDir(), Config{CtxVariant: []string{"nope"}}); err == nil {
		t.Fatal("want error for missing directory")
	}
}
