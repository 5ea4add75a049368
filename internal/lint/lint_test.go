package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// RepoConfig is the configuration the repo holds itself to; the CI job
// runs this test, so a convention break fails the build.
var repoConfig = Config{
	NoContextBackground: []string{"internal/server"},
	CtxParam:            []string{".", "internal/experiments"},
	TestOnlyImports:     []string{"repro/internal/machine/oracle"},
}

// TestRepoIsClean lints the repository's own source. Zero findings is
// the contract: every Run*/Compile*/Evaluate*/Report*/Collect*/
// ReuseLimit* entry point takes a context first, the server never
// detaches from the request context, and only tests import the machine
// oracle.
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
// escapes — a leading ctx param, test files, testdata — suppress them.
// A Ctx or Workers sibling is no escape: the context-free form itself
// is the finding.
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

func RunX() {}                                    // violation: a Ctx sibling is no escape
func RunXCtx(ctx context.Context) {}              // ok: ctx first
func RunXWorkers(workers int) {}                  // violation: Workers form
func (t *T) EvaluateX() {}                        // violation: method
func CollectX(ctx context.Context) {}             // ok
func ReportLate(w int, ctx context.Context) {}    // violation: ctx not first
func EvaluateDirect(ctx context.Context, n int) {} // ok: takes ctx first
func BuildsCompiled() uint64 { return 0 }         // ok: prefix not covered
func runLower() {}                                // ok: unexported
`)

	const oracle = `import _ "example.com/m/oracle"`
	writeFixture(t, filepath.Join(root, "app", "deep"), "app.go", "package deep\n\n"+oracle+" // violation: test-only-import\n")
	writeFixture(t, filepath.Join(root, "app", "deep"), "app_test.go", "package deep\n\n"+oracle+" // test file: exempt\n")
	writeFixture(t, filepath.Join(root, "app", "testdata"), "fixture.go", "package fixture\n\n"+oracle+" // testdata: skipped\n")

	findings, err := Run(root, Config{
		NoContextBackground: []string{"srv"},
		CtxParam:            []string{"api"},
		TestOnlyImports:     []string{"example.com/m/oracle"},
	})
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]string{
		"no-context-background": filepath.Join("srv", "srv.go"),
		"ctx-param":             filepath.Join("api", "api.go"),
		"test-only-import":      filepath.Join("app", "deep", "app.go"),
	}
	got := map[string]int{}
	var ctxLines []int
	for _, f := range findings {
		got[f.Rule]++
		if f.Rule == "ctx-param" {
			ctxLines = append(ctxLines, f.Line)
		}
		if wantFile, ok := want[f.Rule]; !ok || f.File != wantFile {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if got["no-context-background"] != 1 {
		t.Errorf("no-context-background: got %d findings, want 1", got["no-context-background"])
	}
	// RunX, RunXWorkers, (*T).EvaluateX and ReportLate, by fixture line
	if want := []int{7, 9, 10, 12}; !reflect.DeepEqual(ctxLines, want) {
		t.Errorf("ctx-param: flagged lines %v, want %v", ctxLines, want)
	}
	if got["test-only-import"] != 1 {
		t.Errorf("test-only-import: got %d findings, want 1", got["test-only-import"])
	}
}

// TestMissingDir ensures a misconfigured directory is an error, not a
// silent pass.
func TestMissingDir(t *testing.T) {
	if _, err := Run(t.TempDir(), Config{CtxParam: []string{"nope"}}); err == nil {
		t.Fatal("want error for missing directory")
	}
}
