package profile

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
)

func TestLocStringForms(t *testing.T) {
	prog := ir.NewProgram()
	g := prog.NewGlobal("glob", ir.IntType)
	f := prog.NewFunc("fn", ir.VoidType)
	l := f.NewSym("loc", ir.IntType, ir.SymLocal)

	cases := []struct {
		loc  Loc
		want string
	}{
		{Loc{Kind: LocGlobal, Name: g.Name}, "glob"},
		{Loc{Kind: LocLocal, Fn: f.Name, Name: l.Name}, "fn:loc"},
		{Loc{Kind: LocHeap, Site: 7}, "heap@7"},
		{Loc{Kind: LocHeap, Site: 7, Ctx: 3}, "heap@7/3"},
	}
	for _, c := range cases {
		if got := c.loc.String(); got != c.want {
			t.Errorf("Loc.String() = %q, want %q", got, c.want)
		}
	}
}

func TestLocSetOperations(t *testing.T) {
	prog := ir.NewProgram()
	a := prog.NewGlobal("a", ir.IntType)
	b := prog.NewGlobal("b", ir.IntType)
	s := LocSet{}
	la := Loc{Kind: LocGlobal, Name: a.Name}
	lb := Loc{Kind: LocGlobal, Name: b.Name}
	s.Add(la)
	if !s.Has(la) || s.Has(lb) {
		t.Error("Add/Has broken")
	}
	s2 := LocSet{}
	s2.Add(lb)
	s.AddAll(s2)
	if !s.Has(lb) {
		t.Error("AddAll broken")
	}
	// deterministic, sorted rendering
	if got := s.String(); got != "{a, b}" {
		t.Errorf("String() = %q", got)
	}
}

func TestProfileSetAccessorsCreateOnDemand(t *testing.T) {
	p := New()
	p.LoadSet(1).Add(Loc{Kind: LocHeap, Site: 9})
	p.StoreSet(2).Add(Loc{Kind: LocHeap, Site: 9})
	p.ModSet(3).Add(Loc{Kind: LocHeap, Site: 9})
	p.RefSet(4).Add(Loc{Kind: LocHeap, Site: 9})
	if len(p.LoadLocs) != 1 || len(p.StoreLocs) != 1 || len(p.CallMod) != 1 || len(p.CallRef) != 1 {
		t.Error("set accessors did not register their maps")
	}
	// repeated access returns the same set
	if len(p.LoadSet(1)) != 1 {
		t.Error("LoadSet not memoized")
	}
}

// buildDiamond constructs entry → (left|right) → join → exit.
func buildDiamond() (*ir.Program, *ir.Func, []*ir.Block) {
	prog := ir.NewProgram()
	f := prog.NewFunc("main", ir.IntType)
	entry, left, right, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	ir.Connect(entry, left)
	ir.Connect(entry, right)
	ir.Connect(left, join)
	ir.Connect(right, join)
	entry.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
	left.Term = ir.Term{Kind: ir.TermJump}
	right.Term = ir.Term{Kind: ir.TermJump}
	join.Term = ir.Term{Kind: ir.TermRet}
	return prog, f, []*ir.Block{entry, left, right, join}
}

func TestApplyEdges(t *testing.T) {
	prog, f, blocks := buildDiamond()
	p := New()
	c := p.Counts(f)
	c.Blocks = []uint64{100, 70, 30, 100}
	c.Edges[0] = []uint64{70, 30}
	p.ApplyEdges(prog)
	// frequencies are per-entry: entry is 1 no matter how many times the
	// training input called the function
	if blocks[0].Freq != 1 {
		t.Errorf("entry freq = %v, want 1", blocks[0].Freq)
	}
	if blocks[0].EdgeFreq[0] != 0.7 || blocks[0].EdgeFreq[1] != 0.3 {
		t.Errorf("edge freqs = %v, want [0.7 0.3]", blocks[0].EdgeFreq)
	}
	if blocks[1].Freq != 0.7 || blocks[2].Freq != 0.3 {
		t.Errorf("branch freqs = %v, %v, want 0.7, 0.3", blocks[1].Freq, blocks[2].Freq)
	}
	// unexecuted functions keep zero frequencies without panicking
	if blocks[1].EdgeFreq == nil {
		t.Error("EdgeFreq slices must always be allocated")
	}
}

// TestApplyEdgesNormalizesPerFunction is the regression test for the
// frequency-accounting bug: raw counts made a helper called 1000× look
// three orders of magnitude hotter than main even when, per invocation,
// both have identical shape. Each function must be scaled by its own
// entry count so frequencies are comparable across functions.
func TestApplyEdgesNormalizesPerFunction(t *testing.T) {
	prog := ir.NewProgram()
	mkDiamond := func(name string) (*ir.Func, []*ir.Block) {
		f := prog.NewFunc(name, ir.IntType)
		entry, left, right, join := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
		f.Entry = entry
		ir.Connect(entry, left)
		ir.Connect(entry, right)
		ir.Connect(left, join)
		ir.Connect(right, join)
		entry.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
		left.Term = ir.Term{Kind: ir.TermJump}
		right.Term = ir.Term{Kind: ir.TermJump}
		join.Term = ir.Term{Kind: ir.TermRet}
		return f, []*ir.Block{entry, left, right, join}
	}
	mf, mb := mkDiamond("main")
	hf, hb := mkDiamond("helper")

	p := New()
	// main runs once, helper 1000 times; both split 70/30 per entry
	mc, hc := p.Counts(mf), p.Counts(hf)
	mc.Blocks, mc.Edges[0] = []uint64{1, 1, 0, 1}, []uint64{1, 0}
	hc.Blocks, hc.Edges[0] = []uint64{1000, 700, 300, 1000}, []uint64{700, 300}
	p.ApplyEdges(prog)

	if mb[0].Freq != 1 || hb[0].Freq != 1 {
		t.Errorf("entry freqs = %v, %v, want 1, 1", mb[0].Freq, hb[0].Freq)
	}
	if hb[1].Freq != 0.7 || hb[2].Freq != 0.3 {
		t.Errorf("helper branch freqs = %v, %v, want 0.7, 0.3", hb[1].Freq, hb[2].Freq)
	}
	// the bug: helper's blocks dwarfed main's by the call-count ratio
	if hb[3].Freq != mb[3].Freq {
		t.Errorf("join freqs differ across functions: helper %v vs main %v",
			hb[3].Freq, mb[3].Freq)
	}
}

func TestStaticEstimateLoopsAreHot(t *testing.T) {
	prog := ir.NewProgram()
	f := prog.NewFunc("main", ir.IntType)
	entry, header, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	ir.Connect(entry, header)
	ir.Connect(header, body)
	ir.Connect(header, exit)
	ir.Connect(body, header)
	entry.Term = ir.Term{Kind: ir.TermJump}
	header.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
	body.Term = ir.Term{Kind: ir.TermJump}
	exit.Term = ir.Term{Kind: ir.TermRet}

	StaticEstimate(prog)
	if header.Freq <= entry.Freq {
		t.Errorf("loop header (%v) should be hotter than entry (%v)", header.Freq, entry.Freq)
	}
	if body.Freq <= exit.Freq {
		t.Errorf("loop body (%v) should be hotter than exit (%v)", body.Freq, exit.Freq)
	}
	// a 9/10-stay latch converges near 10 iterations per entry
	if header.Freq < 5 || header.Freq > 15 {
		t.Errorf("loop header freq = %v, want ~10", header.Freq)
	}
}

// TestStaticEstimateFlowConservation checks the Kirchhoff property the
// old estimate violated: for every non-entry block, incoming edge
// frequency mass equals the block's own frequency, and a block's
// outgoing edge frequencies sum back to its frequency.
func TestStaticEstimateFlowConservation(t *testing.T) {
	prog := ir.NewProgram()
	f := prog.NewFunc("main", ir.IntType)
	entry, header, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	f.Entry = entry
	ir.Connect(entry, header)
	ir.Connect(header, body)
	ir.Connect(header, exit)
	ir.Connect(body, header)
	entry.Term = ir.Term{Kind: ir.TermJump}
	header.Term = ir.Term{Kind: ir.TermCond, Cond: &ir.ConstInt{Val: 1}}
	body.Term = ir.Term{Kind: ir.TermJump}
	exit.Term = ir.Term{Kind: ir.TermRet}

	StaticEstimate(prog)
	const eps = 1e-6
	for _, b := range f.Blocks {
		var out float64
		for _, ef := range b.EdgeFreq {
			out += ef
		}
		if len(b.Succs) > 0 && abs(out-b.Freq) > eps {
			t.Errorf("B%d: outgoing edges sum to %v, block freq %v", b.ID, out, b.Freq)
		}
		if b == f.Entry {
			continue
		}
		var in float64
		for _, p := range b.Preds {
			for i, s := range p.Succs {
				if s == b {
					in += p.EdgeFreq[i]
				}
			}
		}
		if abs(in-b.Freq) > eps {
			t.Errorf("B%d: incoming edges sum to %v, block freq %v", b.ID, in, b.Freq)
		}
	}
	// the latch split itself: 9/10 stays, 1/10 exits
	ratio := header.EdgeFreq[0] / header.EdgeFreq[1]
	if abs(ratio-9) > eps {
		t.Errorf("latch stay/exit ratio = %v, want 9", ratio)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLocSetStringStable(t *testing.T) {
	prog := ir.NewProgram()
	syms := []*ir.Sym{
		prog.NewGlobal("zz", ir.IntType),
		prog.NewGlobal("aa", ir.IntType),
		prog.NewGlobal("mm", ir.IntType),
	}
	s := LocSet{}
	for _, sym := range syms {
		s.Add(Loc{Kind: LocGlobal, Name: sym.Name})
	}
	first := s.String()
	for i := 0; i < 20; i++ {
		if s.String() != first {
			t.Fatal("LocSet.String() not deterministic")
		}
	}
	if !strings.HasPrefix(first, "{aa") {
		t.Errorf("not sorted: %q", first)
	}
}

func TestProfileSerializationRoundTrip(t *testing.T) {
	prog, fn, _ := buildDiamondNamed()
	p := New()
	c := p.Counts(fn)
	c.Blocks[0] = 42
	c.Edges[0] = []uint64{30, 12}
	g := prog.Globals[0]
	p.LoadSet(5).Add(Loc{Kind: LocGlobal, Name: g.Name})
	p.LoadSet(5).Add(Loc{Kind: LocHeap, Site: 9, Ctx: 2})
	p.StoreSet(6).Add(Loc{Kind: LocLocal, Fn: "main", Name: "lv"})
	p.ModSet(7).Add(Loc{Kind: LocGlobal, Name: g.Name})
	p.RefSet(8).Add(Loc{Kind: LocHeap, Site: 3, Ctx: 0})

	data, err := Marshal(prog, p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Unmarshal(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2.Funcs, p.Funcs) {
		t.Errorf("block and edge counts = %+v, want %+v", p2.Funcs["main"], c)
	}
	if p.LoadLocs[5].String() != p2.LoadLocs[5].String() {
		t.Errorf("load locs: %s != %s", p2.LoadLocs[5], p.LoadLocs[5])
	}
	if p.StoreLocs[6].String() != p2.StoreLocs[6].String() {
		t.Errorf("store locs: %s != %s", p2.StoreLocs[6], p.StoreLocs[6])
	}
	if p.CallMod[7].String() != p2.CallMod[7].String() {
		t.Errorf("mod locs mismatch")
	}
	if p.CallRef[8].String() != p2.CallRef[8].String() {
		t.Errorf("ref locs mismatch")
	}
}

func TestUnmarshalToleratesStaleLocs(t *testing.T) {
	prog, _, _ := buildDiamondNamed()
	data := []byte(`{"version":2,
		"blocks":{"main:B0":4,"main:B9":4,"gone:B0":4,"main:B00":4},
		"loads":{"5":{"g:nosuchglobal":3,"l:main:nosuchlocal":2,"l:gone:lv":2,"h:1/0":1,"l:main:lv":5}}}`)
	p, err := Unmarshal(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	want := LocSet{{Kind: LocHeap, Site: 1}: 1, {Kind: LocLocal, Fn: "main", Name: "lv"}: 5}
	if !reflect.DeepEqual(p.LoadLocs[5], want) {
		t.Errorf("load locs = %v, want only the ones that resolve: %v", p.LoadLocs[5], want)
	}
	if got := p.Funcs["main"].Blocks; !reflect.DeepEqual(got, []uint64{4, 0, 0, 0}) || len(p.Funcs) != 1 {
		t.Errorf("blocks = %v (%d funcs), want only main:B0", got, len(p.Funcs))
	}
}

// TestUnmarshalRejectsBadVersionAndJSON: only version 2 is read; version
// 1 (set-valued, no counts) is rejected like any unknown version.
func TestUnmarshalRejectsBadVersionAndJSON(t *testing.T) {
	prog, _, _ := buildDiamondNamed()
	for _, data := range []string{
		`{"version":1,"loads":{"5":["g:gv","h:9/2"]},"stores":{"6":["l:main:lv"]}}`,
		`{"version":3}`,
		`{}`,
	} {
		if _, err := Unmarshal(prog, []byte(data)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("%s: err = %v, want unsupported version", data, err)
		}
	}
	if _, err := Unmarshal(prog, []byte(`{nonsense`)); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestSerializationKeepsCountsAndTotals is the version-2 round trip: the
// multiset occurrence counts and per-site execution totals that the
// cost-model policy computes alias probabilities from must survive
// Marshal/Unmarshal exactly.
func TestSerializationKeepsCountsAndTotals(t *testing.T) {
	prog, _, _ := buildDiamondNamed()
	g := prog.Globals[0]
	p := New()
	p.LoadSet(5).AddN(Loc{Kind: LocGlobal, Name: g.Name}, 7)
	p.LoadSet(5).Add(Loc{Kind: LocHeap, Site: 9, Ctx: 2})
	p.SiteTotal[5] = 100
	p.StoreSet(6).AddN(Loc{Kind: LocLocal, Fn: "main", Name: "lv"}, 3)
	p.SiteTotal[6] = 40

	data, err := Marshal(prog, p)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Unmarshal(prog, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.LoadLocs[5].Count(Loc{Kind: LocGlobal, Name: g.Name}); got != 7 {
		t.Errorf("load count = %d, want 7", got)
	}
	if got := p2.LoadLocs[5].Count(Loc{Kind: LocHeap, Site: 9, Ctx: 2}); got != 1 {
		t.Errorf("heap load count = %d, want 1", got)
	}
	if p2.Total(5) != 100 || p2.Total(6) != 40 {
		t.Errorf("totals = %d, %d, want 100, 40", p2.Total(5), p2.Total(6))
	}
	if got := p2.StoreLocs[6].Count(Loc{Kind: LocLocal, Fn: "main", Name: "lv"}); got != 3 {
		t.Errorf("store count = %d, want 3", got)
	}
}

// buildDiamondNamed is buildDiamond plus a global and a local symbol.
func buildDiamondNamed() (*ir.Program, *ir.Func, []*ir.Block) {
	prog, f, blocks := buildDiamond()
	prog.NewGlobal("gv", ir.IntType)
	f.NewSym("lv", ir.IntType, ir.SymLocal)
	return prog, f, blocks
}

func fnLocal(prog *ir.Program) *ir.Sym {
	for _, s := range prog.Funcs[0].Syms {
		if s.Name == "lv" {
			return s
		}
	}
	return nil
}
