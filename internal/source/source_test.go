package source

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
)

// --- lexer ---

func tokens(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Lex(src)
	if err != nil {
		t.Fatalf("lex: %v", err)
	}
	return toks
}

func TestLexBasics(t *testing.T) {
	toks := tokens(t, `int x = 42; double y = 3.5;`)
	var kinds []TokKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	want := []string{"int", "x", "=", "42", ";", "double", "y", "=", "3.5", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[3] != TokInt || kinds[8] != TokFloat {
		t.Errorf("kinds wrong: %v", kinds)
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	toks := tokens(t, `a == b != c <= d >= e && f || g += h -= i ++ -> << >>`)
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokPunct && len(tok.Text) == 2 {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "++", "->", "<<", ">>"}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestLexSingleEqualsBeforeSpace(t *testing.T) {
	// regression: "= " must not lex as a two-char operator
	toks := tokens(t, "x = 5;")
	if toks[1].Text != "=" || toks[1].Kind != TokPunct {
		t.Fatalf("second token = %q (%v)", toks[1].Text, toks[1].Kind)
	}
	if toks[2].Kind != TokInt || toks[2].Val != 5 {
		t.Fatalf("third token should be int 5, got %q", toks[2].Text)
	}
}

func TestLexComments(t *testing.T) {
	toks := tokens(t, `
int a; // line comment with symbols == != ;
/* block
   comment */ int b;`)
	var idents []string
	for _, tok := range toks {
		if tok.Kind == TokIdent {
			idents = append(idents, tok.Text)
		}
	}
	if len(idents) != 2 || idents[0] != "a" || idents[1] != "b" {
		t.Errorf("idents = %v", idents)
	}
}

func TestLexFloatForms(t *testing.T) {
	toks := tokens(t, "1.5 2.0 1e3 2.5e-2 7")
	wantKinds := []TokKind{TokFloat, TokFloat, TokFloat, TokFloat, TokInt, TokEOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d (%q) kind = %v, want %v", i, toks[i].Text, toks[i].Kind, k)
		}
	}
	if toks[2].FVal != 1000 {
		t.Errorf("1e3 parsed as %g", toks[2].FVal)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"int @;", "/* unterminated", `"unterminated`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("expected lex error for %q", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks := tokens(t, "int a;\nint b;")
	// 'b' is on line 2
	for _, tok := range toks {
		if tok.Text == "b" && tok.Line != 2 {
			t.Errorf("b at line %d, want 2", tok.Line)
		}
	}
}

// --- parser ---

func parse(t *testing.T, src string) *File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestParseFunctionsAndGlobals(t *testing.T) {
	f := parse(t, `
int g = 1;
double arr[8];
struct pt { int x; int y; };
struct pt table[4];
int add(int a, int b) { return a + b; }
void nothing() { }
int main() { return add(g, 2); }
`)
	if len(f.Globals) != 3 {
		t.Errorf("globals = %d, want 3", len(f.Globals))
	}
	if len(f.Funcs) != 3 {
		t.Errorf("funcs = %d, want 3", len(f.Funcs))
	}
	if len(f.Structs) != 1 || f.Structs[0].Name != "pt" {
		t.Errorf("structs = %v", f.Structs)
	}
	if f.Globals[1].Type.Kind != ir.KArray || f.Globals[1].Type.Len != 8 {
		t.Errorf("arr type = %v", f.Globals[1].Type)
	}
	if f.Globals[2].Type.Kind != ir.KArray || f.Globals[2].Type.Elem.Kind != ir.KStruct {
		t.Errorf("table type = %v", f.Globals[2].Type)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := parse(t, `int main() { int x = 1 + 2 * 3 < 7 && 1; return x; }`)
	decl := f.Funcs[0].Body.List[0].(*DeclStmt)
	// top is &&
	b, ok := decl.Decl.Init.(*Binary)
	if !ok || b.Op != "&&" {
		t.Fatalf("top op = %v", decl.Decl.Init)
	}
	l, ok := b.L.(*Binary)
	if !ok || l.Op != "<" {
		t.Fatalf("left of && = %v", b.L)
	}
	add, ok := l.L.(*Binary)
	if !ok || add.Op != "+" {
		t.Fatalf("left of < = %v", l.L)
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != "*" {
		t.Fatalf("right of + should be *: %v", add.R)
	}
}

func TestParsePostfixChains(t *testing.T) {
	f := parse(t, `
struct node { int v; struct node *next; };
int main() {
	struct node *p = (struct node*)malloc(2);
	p->next->v = p->v + 1;
	int arr[3];
	arr[0] = arr[1] + arr[2];
	return 0;
}`)
	_ = f
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int main() { return 1 }`,             // missing ;
		`int main( { return 0; }`,             // bad params
		`int main() { if (1 { } return 0; }`,  // missing )
		`int main() { int 5 = 3; return 0; }`, // bad name
		`struct s { int x; };
		 struct t { struct s bad[2] }`, // missing ; after field
		`int main() { unknown_t x; return 0; }`, // unknown type keyword → expression error
		`int main() { break; }`,                 // break outside loop (lower error)
	}
	for _, src := range cases {
		f, err := Parse(src)
		if err != nil {
			continue // parse error is fine
		}
		if _, err := Lower(f); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseForVariants(t *testing.T) {
	parse(t, `
int main() {
	for (;;) { break; }
	for (int i = 0; ; i++) { if (i > 2) break; }
	int j;
	for (j = 0; j < 3; j++) { continue; }
	return 0;
}`)
}

// --- lowering ---

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	f := parse(t, src)
	prog, err := Lower(f)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return prog
}

func TestLowerProducesValidIR(t *testing.T) {
	prog := lower(t, `
struct pair { int a; double b; };
int g = 5;
double scale(double x, int k) { return x * (double)k; }
int main() {
	struct pair p;
	p.a = g;
	p.b = scale(1.5, p.a);
	int *q = &p.a;
	*q += 1;
	print(p.a, p.b);
	return 0;
}`)
	for _, f := range prog.Funcs {
		if err := ir.Verify(f); err != nil {
			t.Errorf("invalid IR for %s: %v", f.Name, err)
		}
	}
}

func TestLowerGlobalInitializers(t *testing.T) {
	prog := lower(t, `
int a = 7;
int b = -3;
double c = 2.5;
int main() { return 0; }`)
	if len(prog.GlobalInit) != 3 {
		t.Fatalf("GlobalInit has %d entries, want 3", len(prog.GlobalInit))
	}
	var aSym, bSym *ir.Sym
	for _, g := range prog.Globals {
		switch g.Name {
		case "a":
			aSym = g
		case "b":
			bSym = g
		}
	}
	if int64(prog.GlobalInit[aSym.Addr]) != 7 {
		t.Errorf("a init = %d", int64(prog.GlobalInit[aSym.Addr]))
	}
	if int64(prog.GlobalInit[bSym.Addr]) != -3 {
		t.Errorf("b init = %d", int64(prog.GlobalInit[bSym.Addr]))
	}
}

func TestLowerRejects(t *testing.T) {
	cases := map[string]string{
		"non-const global init":  `int g = 1; int h = g + 1; int main() { return 0; }`,
		"undefined variable":     `int main() { return nosuch; }`,
		"undefined function":     `int main() { return nosuch(); }`,
		"void as value":          `void v() {} int main() { return v(); }`,
		"print as value":         `int main() { int a = print(); return a; }`,
		"pointer/int mix":        `int main() { int *p = 5; return 0; }`,
		"aggregate assign":       `struct s { int a; int b; }; int main() { struct s x; struct s y; x = y; return 0; }`,
		"arity mismatch":         `int f(int a) { return a; } int main() { return f(1, 2); }`,
		"dup global":             `int g; int g; int main() { return 0; }`,
		"dup function":           `int f() { return 0; } int f() { return 1; } int main() { return 0; }`,
		"dup local":              `int main() { int x; int x; return 0; }`,
		"missing main":           `int f() { return 0; }`,
		"return value from void": `void f() { return 3; } int main() { return 0; }`,
		"deref non-pointer":      `int main() { int x; return *x; }`,
		"index non-array":        `int main() { int x; return x[0]; }`,
		"continue outside loop":  `int main() { continue; }`,
	}
	for name, src := range cases {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("%s: unexpected parse error %v", name, err)
			continue
		}
		if _, err := Lower(f); err == nil {
			t.Errorf("%s: expected lowering error", name)
		}
	}
}

func TestLowerFlattenedDiscipline(t *testing.T) {
	// every operand of a non-copy statement must be a constant, a
	// register ref, or an address
	prog := lower(t, `
int g = 1;
int h = 2;
int main() {
	int sum = g + h * g;
	int *p = &g;
	sum += *p;
	print(sum);
	return 0;
}`)
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				a, ok := st.(*ir.Assign)
				if !ok || a.RK == ir.RHSCopy {
					continue
				}
				for _, op := range ir.Uses(st) {
					if r, isRef := op.(*ir.Ref); isRef && r.Sym.InMemory() {
						t.Errorf("%s: memory ref %s as operand of %s", f.Name, r.Sym.Name, st)
					}
				}
			}
		}
	}
}

func TestLowerMemoryParamGetsShadow(t *testing.T) {
	prog := lower(t, `
int addrof(int x) {
	int *p = &x;
	return *p;
}
int main() { return addrof(5); }`)
	f := prog.FuncMap["addrof"]
	if len(f.Params) != 1 {
		t.Fatalf("params = %d", len(f.Params))
	}
	p := f.Params[0]
	if p.InMemory() {
		t.Error("the incoming parameter must be a register shadow")
	}
	if !strings.Contains(p.Name, "$in") {
		t.Errorf("shadow param name = %q", p.Name)
	}
	// the entry block must store the shadow into the frame
	found := false
	for _, st := range f.Entry.Stmts {
		if a, ok := st.(*ir.Assign); ok && a.RK == ir.RHSCopy && a.Dst.Sym.InMemory() {
			if r, isRef := a.A.(*ir.Ref); isRef && r.Sym == p {
				found = true
			}
		}
	}
	if !found {
		t.Error("no prologue store of the shadow parameter")
	}
}

func TestLowerSiteIDsAreUnique(t *testing.T) {
	prog := lower(t, `
int A[4];
int main() {
	int *p = &A[0];
	*p = 1;
	int x = *p;
	A[1] = x;
	int y = A[2];
	print(y);
	return 0;
}`)
	seen := map[int]bool{}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, st := range b.Stmts {
				var site int
				switch s := st.(type) {
				case *ir.Assign:
					site = s.Site
				case *ir.IStore:
					site = s.Site
				}
				if site != 0 {
					if seen[site] {
						t.Errorf("duplicate site id %d", site)
					}
					seen[site] = true
				}
			}
		}
	}
	if len(seen) < 4 {
		t.Errorf("expected at least 4 reference sites, got %d", len(seen))
	}
}

func TestLowerWhileAndLogicalOps(t *testing.T) {
	// golden structure: while lowers to header/body/exit with the
	// condition in the header; && produces short-circuit control flow
	prog := lower(t, `
int main() {
	int i = 0;
	int hits = 0;
	while (i < 10 && hits < 3) {
		if (i % 2 == 0 || i > 7) hits++;
		i++;
	}
	print(i, hits);
	return 0;
}`)
	main := prog.FuncMap["main"]
	conds := 0
	for _, b := range main.Blocks {
		if b.Term.Kind == ir.TermCond {
			conds++
		}
	}
	// while-condition + && + if + || need at least 4 conditional branches
	if conds < 4 {
		t.Errorf("expected >= 4 conditional branches from short-circuiting, got %d", conds)
	}
	if err := ir.Verify(main); err != nil {
		t.Fatal(err)
	}
}

func TestLowerCasts(t *testing.T) {
	prog := lower(t, `
int main() {
	double d = 3.9;
	int i = (int)d;
	double e = (double)i;
	int *p = (int*)malloc(2);
	double *q = (double*)p;     // pointer reinterpretation
	int addr = (int)p;          // pointer to int
	int *r = (int*)addr;        // and back
	*r = i;
	print(i, e, *p);
	return 0;
}`)
	for _, f := range prog.Funcs {
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
	}
	// conversion ops must be present
	var i2f, f2i int
	for _, b := range prog.FuncMap["main"].Blocks {
		for _, st := range b.Stmts {
			if a, ok := st.(*ir.Assign); ok && a.RK == ir.RHSUnary {
				switch a.Op {
				case ir.OpIntToFloat:
					i2f++
				case ir.OpFloatToInt:
					f2i++
				}
			}
		}
	}
	if i2f == 0 || f2i == 0 {
		t.Errorf("conversions missing: i2f=%d f2i=%d", i2f, f2i)
	}
}

func TestLowerCompoundBitwiseAssign(t *testing.T) {
	prog := lower(t, `
int main() {
	int x = 12;
	x ^= 10;
	x &= 14;
	x |= 1;
	print(x);
	return 0;
}`)
	_ = prog
}

func TestStructArraysAndNestedAccess(t *testing.T) {
	prog := lower(t, `
struct cell { int v; double w; };
struct cell grid[6];
int main() {
	for (int i = 0; i < 6; i++) {
		grid[i].v = i;
		grid[i].w = (double)i * 0.5;
	}
	int sv = 0;
	double sw = 0.0;
	for (int i = 0; i < 6; i++) {
		sv += grid[i].v;
		sw += grid[i].w;
	}
	print(sv, sw);
	return 0;
}`)
	for _, f := range prog.Funcs {
		if err := ir.Verify(f); err != nil {
			t.Fatal(err)
		}
	}
	// struct cell occupies 2 slots; grid = 12 slots
	for _, g := range prog.Globals {
		if g.Name == "grid" && g.Type.Size() != 12 {
			t.Errorf("grid size = %d slots, want 12", g.Type.Size())
		}
	}
}

// TestNestingBounded pins the parser's depth bound: source nested far
// past maxNesting, whether the parser recurses on it (parentheses,
// unary operators, blocks, assignments) or builds it in a loop (binary
// and subscript chains, pointer and array types), fails with a
// positioned *Error instead of overflowing the stack, here or in a
// later pass, or running a later pass for minutes (a type 10^6
// pointers deep took almost five to fail type checking). Nesting
// within the bound still compiles.
func TestNestingBounded(t *testing.T) {
	const deep = 100_000
	rep := strings.Repeat
	cases := map[string]string{
		"parentheses":  "int main() { return " + rep("(", deep) + "1" + rep(")", deep) + "; }",
		"unary chain":  "int main() { return " + rep("- ", deep) + "1; }",
		"binary chain": "int main() { return 1" + rep("+1", deep) + "; }",
		"blocks":       "int main() " + rep("{", deep) + rep("}", deep),
		"if chain":     "int main() { int x; x = 0; " + rep("if (x) ", deep) + "x = 1; return x; }",
		"assignments":  "int main() { int x; " + rep("x = ", deep) + "1; return x; }",
		"subscripts":   "int a[4]; int main() { return a" + rep("[0]", deep) + "; }",
		"pointer type": "int main() { int" + rep("*", deep) + " p; return 0; }",
		"array type":   "int a" + rep("[1]", deep) + "; int main() { return 0; }",
	}
	for name, src := range cases {
		_, err := Parse(src)
		var e *Error
		if !errors.As(err, &e) || e.Line != 1 || e.Col == 0 || !strings.Contains(e.Msg, "nesting") {
			t.Errorf("%s: Parse = %v, want a positioned nesting error", name, err)
		}
	}
	const ok = maxNesting / 2
	for name, src := range map[string]string{
		"parentheses":  "int main() { return " + rep("(", ok) + "1" + rep(")", ok) + "; }",
		"binary chain": "int main() { return 1" + rep("+1", ok) + "; }",
		"blocks":       "int main() " + rep("{", ok) + "return 0;" + rep("}", ok),
	} {
		f, err := Parse(src)
		if err != nil {
			t.Errorf("%s, %d deep: %v", name, ok, err)
			continue
		}
		if _, err := Lower(f); err != nil {
			t.Errorf("%s, %d deep: lower: %v", name, ok, err)
		}
	}
}
