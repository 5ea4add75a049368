package profile

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/ir"
)

// Version is the serialization format written by Marshal. Version 2
// carries counted LOC multisets plus per-site execution totals; version 1
// (read-compatible) carried plain LOC sets, which deserialize as count-1
// entries with no totals.
const Version = 2

// serialized is the JSON form of a version-2 profile. Reference
// sites are keyed by their program-unique site ids and blocks by
// "func:Bn"; both are stable across compiles of identical source
// (lowering is deterministic). Each site maps encoded LOCs to their
// observation counts, and Totals records the site's dynamic executions.
type serialized struct {
	Version int                          `json:"version"`
	Blocks  map[string]uint64            `json:"blocks,omitempty"`
	Edges   map[string][]uint64          `json:"edges,omitempty"`
	Loads   map[string]map[string]uint64 `json:"loads,omitempty"`
	Stores  map[string]map[string]uint64 `json:"stores,omitempty"`
	CallMod map[string]map[string]uint64 `json:"callmod,omitempty"`
	CallRef map[string]map[string]uint64 `json:"callref,omitempty"`
	Totals  map[string]uint64            `json:"totals,omitempty"`
}

// serializedV1 is the legacy (set-valued) form, still accepted on read.
type serializedV1 struct {
	Blocks  map[string]uint64   `json:"blocks,omitempty"`
	Edges   map[string][]uint64 `json:"edges,omitempty"`
	Loads   map[string][]string `json:"loads,omitempty"`
	Stores  map[string][]string `json:"stores,omitempty"`
	CallMod map[string][]string `json:"callmod,omitempty"`
	CallRef map[string][]string `json:"callref,omitempty"`
}

// encodeLoc renders a Loc as a stable string.
func encodeLoc(l Loc) string {
	switch l.Kind {
	case LocGlobal:
		return "g:" + l.Sym.Name
	case LocLocal:
		return "l:" + l.Fn.Name + ":" + l.Sym.Name
	case LocHeap:
		return fmt.Sprintf("h:%d/%d", l.Site, l.Ctx)
	}
	return ""
}

// decodeLoc parses an encoded Loc against a program's symbols.
func decodeLoc(prog *ir.Program, s string) (Loc, error) {
	switch {
	case strings.HasPrefix(s, "g:"):
		name := s[2:]
		for _, g := range prog.Globals {
			if g.Name == name {
				return Loc{Kind: LocGlobal, Sym: g}, nil
			}
		}
		return Loc{}, fmt.Errorf("profile: unknown global %q", name)
	case strings.HasPrefix(s, "l:"):
		parts := strings.SplitN(s[2:], ":", 2)
		if len(parts) != 2 {
			return Loc{}, fmt.Errorf("profile: malformed local loc %q", s)
		}
		fn, ok := prog.FuncMap[parts[0]]
		if !ok {
			return Loc{}, fmt.Errorf("profile: unknown function %q", parts[0])
		}
		for _, sym := range fn.Syms {
			if sym.Name == parts[1] {
				return Loc{Kind: LocLocal, Sym: sym, Fn: fn}, nil
			}
		}
		return Loc{}, fmt.Errorf("profile: unknown local %q in %q", parts[1], parts[0])
	case strings.HasPrefix(s, "h:"):
		var site, ctx int
		if _, err := fmt.Sscanf(s[2:], "%d/%d", &site, &ctx); err != nil {
			return Loc{}, fmt.Errorf("profile: malformed heap loc %q", s)
		}
		return Loc{Kind: LocHeap, Site: site, Ctx: ctx}, nil
	}
	return Loc{}, fmt.Errorf("profile: malformed loc %q", s)
}

// blockKeys builds the stable name of every block.
func blockKeys(prog *ir.Program) map[*ir.Block]string {
	m := map[*ir.Block]string{}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			m[b] = fmt.Sprintf("%s:B%d", f.Name, b.ID)
		}
	}
	return m
}

// Marshal serializes a profile collected on prog (format Version).
func Marshal(prog *ir.Program, p *Profile) ([]byte, error) {
	out := serialized{
		Version: Version,
		Blocks:  map[string]uint64{},
		Edges:   map[string][]uint64{},
		Loads:   map[string]map[string]uint64{},
		Stores:  map[string]map[string]uint64{},
		CallMod: map[string]map[string]uint64{},
		CallRef: map[string]map[string]uint64{},
		Totals:  map[string]uint64{},
	}
	keys := blockKeys(prog)
	for b, c := range p.BlockCount {
		if k, ok := keys[b]; ok {
			out.Blocks[k] = c
		}
	}
	for b, counts := range p.EdgeCount {
		if k, ok := keys[b]; ok {
			out.Edges[k] = counts
		}
	}
	encodeSets := func(dst map[string]map[string]uint64, src map[int]LocSet) {
		for site, set := range src {
			locs := make(map[string]uint64, len(set))
			for l, n := range set {
				locs[encodeLoc(l)] = n
			}
			// map keys marshal sorted, so the output is stable for
			// diffing and golden tests
			dst[fmt.Sprint(site)] = locs
		}
	}
	encodeSets(out.Loads, p.LoadLocs)
	encodeSets(out.Stores, p.StoreLocs)
	encodeSets(out.CallMod, p.CallMod)
	encodeSets(out.CallRef, p.CallRef)
	for site, n := range p.SiteTotal {
		out.Totals[fmt.Sprint(site)] = n
	}
	return json.MarshalIndent(out, "", "  ")
}

// Unmarshal parses a serialized profile (version 2, or version 1 for
// backward compatibility) against prog. Locations that no longer resolve
// (the program changed since profiling) are dropped; an error is returned
// only for structural corruption or an unsupported version, matching
// profile-feedback tolerance in real compilers.
func Unmarshal(prog *ir.Program, data []byte) (*Profile, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	switch probe.Version {
	case 1:
		return unmarshalV1(prog, data)
	case 2:
		return unmarshalV2(prog, data)
	}
	return nil, fmt.Errorf("profile: unsupported version %d", probe.Version)
}

// decodeBlocks fills BlockCount/EdgeCount from the (version-independent)
// block and edge maps.
func decodeBlocks(prog *ir.Program, p *Profile, inBlocks map[string]uint64, inEdges map[string][]uint64) {
	blocks := map[string]*ir.Block{}
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			blocks[fmt.Sprintf("%s:B%d", f.Name, b.ID)] = b
		}
	}
	for k, c := range inBlocks {
		if b, ok := blocks[k]; ok {
			p.BlockCount[b] = c
		}
	}
	for k, counts := range inEdges {
		if b, ok := blocks[k]; ok {
			p.EdgeCount[b] = counts
		}
	}
}

func parseSite(s string) (int, error) {
	var site int
	if _, err := fmt.Sscanf(s, "%d", &site); err != nil {
		return 0, fmt.Errorf("profile: bad site key %q", s)
	}
	return site, nil
}

func unmarshalV2(prog *ir.Program, data []byte) (*Profile, error) {
	var in serialized
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := New()
	decodeBlocks(prog, p, in.Blocks, in.Edges)
	decodeSets := func(src map[string]map[string]uint64, get func(int) LocSet) error {
		for siteStr, locs := range src {
			site, err := parseSite(siteStr)
			if err != nil {
				return err
			}
			set := get(site)
			for ls, n := range locs {
				loc, err := decodeLoc(prog, ls)
				if err != nil {
					continue // stale entry: tolerate
				}
				set.AddN(loc, n)
			}
		}
		return nil
	}
	if err := decodeSets(in.Loads, p.LoadSet); err != nil {
		return nil, err
	}
	if err := decodeSets(in.Stores, p.StoreSet); err != nil {
		return nil, err
	}
	if err := decodeSets(in.CallMod, p.ModSet); err != nil {
		return nil, err
	}
	if err := decodeSets(in.CallRef, p.RefSet); err != nil {
		return nil, err
	}
	for siteStr, n := range in.Totals {
		site, err := parseSite(siteStr)
		if err != nil {
			return nil, err
		}
		p.SiteTotal[site] = n
	}
	return p, nil
}

// unmarshalV1 reads the legacy set-valued format: every listed LOC gets
// count 1 and no site totals are recorded, so probability-aware consumers
// degrade to the set semantics the format carried.
func unmarshalV1(prog *ir.Program, data []byte) (*Profile, error) {
	var in serializedV1
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := New()
	decodeBlocks(prog, p, in.Blocks, in.Edges)
	decodeSets := func(src map[string][]string, get func(int) LocSet) error {
		for siteStr, locs := range src {
			site, err := parseSite(siteStr)
			if err != nil {
				return err
			}
			set := get(site)
			for _, ls := range locs {
				loc, err := decodeLoc(prog, ls)
				if err != nil {
					continue // stale entry: tolerate
				}
				set.Add(loc)
			}
		}
		return nil
	}
	if err := decodeSets(in.Loads, p.LoadSet); err != nil {
		return nil, err
	}
	if err := decodeSets(in.Stores, p.StoreSet); err != nil {
		return nil, err
	}
	if err := decodeSets(in.CallMod, p.ModSet); err != nil {
		return nil, err
	}
	if err := decodeSets(in.CallRef, p.RefSet); err != nil {
		return nil, err
	}
	return p, nil
}
