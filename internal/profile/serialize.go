package profile

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// Version is the serialization format written by Marshal and the only
// one Unmarshal reads: counted LOC multisets plus per-site execution
// totals.
const Version = 2

// serialized is the JSON form of a profile. Reference sites are keyed by
// their program-unique site ids and blocks by "func:Bn"; both are stable
// across compiles of identical source (lowering is deterministic). Each
// site maps encoded LOCs to their observation counts, and Totals records
// the site's dynamic executions.
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

// encodeLoc renders a Loc as a stable string.
func encodeLoc(l Loc) string {
	switch l.Kind {
	case LocGlobal:
		return "g:" + l.Name
	case LocLocal:
		return "l:" + l.Fn + ":" + l.Name
	case LocHeap:
		return fmt.Sprintf("h:%d/%d", l.Site, l.Ctx)
	}
	return ""
}

// decodeLoc parses an encoded Loc.
func decodeLoc(s string) (Loc, error) {
	switch {
	case strings.HasPrefix(s, "g:"):
		return Loc{Kind: LocGlobal, Name: s[2:]}, nil
	case strings.HasPrefix(s, "l:"):
		fn, name, ok := strings.Cut(s[2:], ":")
		if !ok {
			return Loc{}, fmt.Errorf("profile: malformed local loc %q", s)
		}
		return Loc{Kind: LocLocal, Fn: fn, Name: name}, nil
	case strings.HasPrefix(s, "h:"):
		var site, ctx int
		if _, err := fmt.Sscanf(s[2:], "%d/%d", &site, &ctx); err != nil {
			return Loc{}, fmt.Errorf("profile: malformed heap loc %q", s)
		}
		return Loc{Kind: LocHeap, Site: site, Ctx: ctx}, nil
	}
	return Loc{}, fmt.Errorf("profile: malformed loc %q", s)
}

// Marshal serializes a profile (format Version). The profile names
// everything by function, variable, block ID and site, so prog is not
// consulted; it keeps the signature symmetric with Unmarshal. Blocks and
// edges that never executed are left out.
func Marshal(_ *ir.Program, p *Profile) ([]byte, error) {
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
	for fn, c := range p.Funcs {
		for id, n := range c.Blocks {
			if n > 0 {
				out.Blocks[fmt.Sprintf("%s:B%d", fn, id)] = n
			}
		}
		for id, counts := range c.Edges {
			if nonzero(counts) {
				out.Edges[fmt.Sprintf("%s:B%d", fn, id)] = counts
			}
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
			dst[strconv.Itoa(site)] = locs
		}
	}
	encodeSets(out.Loads, p.LoadLocs)
	encodeSets(out.Stores, p.StoreLocs)
	encodeSets(out.CallMod, p.CallMod)
	encodeSets(out.CallRef, p.CallRef)
	for site, n := range p.SiteTotal {
		out.Totals[strconv.Itoa(site)] = n
	}
	return json.MarshalIndent(out, "", "  ")
}

// Unmarshal parses a serialized profile (version 2) against prog: the
// boundary an untrusted Config.ProfileJSON crosses. Blocks and locations
// that do not resolve against prog (the program changed since profiling)
// are dropped, as are zero counts; an error is returned only for
// structural corruption or an unsupported version, matching
// profile-feedback tolerance in real compilers.
func Unmarshal(prog *ir.Program, data []byte) (*Profile, error) {
	var probe struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if probe.Version != Version {
		return nil, fmt.Errorf("profile: unsupported version %d", probe.Version)
	}
	var in serialized
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := New()
	decodeBlocks(prog, p, in.Blocks, in.Edges)
	names := varNames(prog)
	decodeSets := func(src map[string]map[string]uint64, get func(int) LocSet) error {
		for siteStr, locs := range src {
			site, err := parseSite(siteStr)
			if err != nil {
				return err
			}
			set := get(site)
			for ls, n := range locs {
				loc, err := decodeLoc(ls)
				if err != nil || (loc.Kind != LocHeap && !names[loc]) {
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

// varNames is the set of variable Locs prog can resolve: every global and
// every symbol of every function, by name.
func varNames(prog *ir.Program) map[Loc]bool {
	names := map[Loc]bool{}
	for _, g := range prog.Globals {
		names[Loc{Kind: LocGlobal, Name: g.Name}] = true
	}
	for _, f := range prog.Funcs {
		for _, s := range f.Syms {
			names[Loc{Kind: LocLocal, Fn: f.Name, Name: s.Name}] = true
		}
	}
	return names
}

// decodeBlocks fills p.Funcs from the block and edge maps, keeping the
// nonzero counts of blocks that exist in prog.
func decodeBlocks(prog *ir.Program, p *Profile, inBlocks map[string]uint64, inEdges map[string][]uint64) {
	ids := map[*ir.Func][]bool{} // per function, which block IDs name a block
	resolve := func(key string) (*FuncCounts, int, bool) {
		i := strings.LastIndex(key, ":B")
		if i < 0 {
			return nil, 0, false
		}
		fn := prog.FuncMap[key[:i]]
		id, err := strconv.Atoi(key[i+2:])
		if fn == nil || err != nil || strconv.Itoa(id) != key[i+2:] {
			return nil, 0, false // only the canonical "func:Bn" names a block
		}
		known, ok := ids[fn]
		if !ok {
			for _, b := range fn.Blocks {
				known = append(known, make([]bool, max(0, b.ID+1-len(known)))...)
				known[b.ID] = true
			}
			ids[fn] = known
		}
		if id < 0 || id >= len(known) || !known[id] {
			return nil, 0, false
		}
		return p.Counts(fn), id, true
	}
	for k, n := range inBlocks {
		if n == 0 {
			continue
		}
		if c, id, ok := resolve(k); ok {
			c.Blocks[id] = n
		}
	}
	for k, counts := range inEdges {
		if !nonzero(counts) {
			continue
		}
		if c, id, ok := resolve(k); ok {
			c.Edges[id] = counts
		}
	}
}

// nonzero reports whether any count is positive.
func nonzero(counts []uint64) bool {
	for _, n := range counts {
		if n > 0 {
			return true
		}
	}
	return false
}

func parseSite(s string) (int, error) {
	var site int
	if _, err := fmt.Sscanf(s, "%d", &site); err != nil {
		return 0, fmt.Errorf("profile: bad site key %q", s)
	}
	return site, nil
}
