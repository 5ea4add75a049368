package profile_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/workloads"
)

// equakeProfile lowers equake, refines it the way the compilation
// pipeline does before profiling, and collects its training-input
// profile: the program every fuzz input is bound against, and the
// serialized profile that seeds the corpus.
func equakeProfile(tb testing.TB) (*ir.Program, []byte) {
	tb.Helper()
	w, ok := workloads.ByName("equake")
	if !ok {
		tb.Fatal("equake not registered")
	}
	f, err := source.Parse(w.Src)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := source.Lower(f)
	if err != nil {
		tb.Fatal(err)
	}
	alias.RefineWorkers(prog, 1)
	prof := profile.New()
	if _, err := interp.Run(prog, interp.Options{
		CollectEdges: true, CollectAlias: true, Profile: prof, Args: w.ProfileArgs,
	}); err != nil {
		tb.Fatal(err)
	}
	data, err := profile.Marshal(prog, prof)
	if err != nil {
		tb.Fatal(err)
	}
	return prog, data
}

// FuzzProfileUnmarshal feeds arbitrary bytes to the profile decoder —
// the boundary a request's profileJSON crosses — bound against equake's
// program and against an empty one (only the program-independent
// checks: JSON shape, version, site keys). The decoder must never panic, and any profile
// it accepts must round-trip: Marshal's bytes decode to an equal profile
// and re-marshal to the same bytes. The seed corpus
// (testdata/fuzz/FuzzProfileUnmarshal) holds equake's real profile; the
// version-1 seed is an input the decoder must reject.
func FuzzProfileUnmarshal(f *testing.F) {
	prog, data := equakeProfile(f)
	f.Add(data)
	f.Add([]byte(`{"version":1,"loads":{"3":["g:nodes","h:1/0"]},"blocks":{"main:B0":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []*ir.Program{prog, {}} {
			prof, err := profile.Unmarshal(p, data)
			if err != nil {
				continue
			}
			enc, err := profile.Marshal(p, prof)
			if err != nil {
				t.Fatalf("marshaling an accepted profile: %v", err)
			}
			back, err := profile.Unmarshal(p, enc)
			if err != nil {
				t.Fatalf("decoding Marshal's own output: %v\n%s", err, enc)
			}
			if !reflect.DeepEqual(prof, back) {
				t.Fatalf("profile changed across Marshal/Unmarshal:\n%s", enc)
			}
			if again, _ := profile.Marshal(p, back); !bytes.Equal(enc, again) {
				t.Fatalf("Marshal is not stable:\n%s\nvs\n%s", enc, again)
			}
		}
	})
}
