package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	machineFile = "BENCH_machine.json"
	compileFile = "BENCH_compile.json"
	hardenFile  = "BENCH_harden.json"
	machineBase = `{"benchmark": "MachineSweep", "serial": {"speedup": 10}, "mixed": {"speedup": 8}, "speedup": 10}`
	compileBase = `{"benchmark": "CompileProfile", "allocs_per_compile": 8000, "ns_per_compile": 2000000}`
	scalarsBase = `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 30000000, "trace_bytes_all": 1900713}`
	countsBase  = `{"builds_compiled": 10, "builds_reused": 54, "ns_per_compile": 2000000}`
	hardenBase  = "{\n  \"totalResidual\": 0\n}\n"
)

var (
	speedups = []string{"serial.speedup", "mixed.speedup"}
	costs    = []string{"allocs_per_compile", "ns_per_compile"}
	scalars  = []string{"record_ns", "record_all_ns", "walk_ns", "walk_all_ns", "trace_bytes_all"}
	counts   = []string{"builds_compiled", "builds_reused"}
	wholeRow = []string{""}
)

// scalarsWith is scalarsBase with one field replaced (or, with an empty
// value, removed).
func scalarsWith(key, value string) string {
	parts := strings.Split(strings.Trim(scalarsBase, "{}"), ", ")
	var out []string
	for _, p := range parts {
		if !strings.HasPrefix(p, `"`+key+`"`) {
			out = append(out, p)
		} else if value != "" {
			out = append(out, `"`+key+`": `+value)
		}
	}
	return "{" + strings.Join(out, ", ") + "}"
}

// TestGuard runs the table's own rows for one file over a baseline and
// a fresh copy. want is "ok", "error", or the row name that must FAIL.
func TestGuard(t *testing.T) {
	cases := []struct {
		name, file  string
		paths       []string
		base, fresh string
		want        string
	}{
		{"speedups within the margin pass", machineFile, speedups, machineBase,
			`{"serial": {"speedup": 7.6}, "mixed": {"speedup": 9}}`, "ok"},
		{"a speedup drop beyond the margin fails", machineFile, speedups, machineBase,
			`{"serial": {"speedup": 7.4}, "mixed": {"speedup": 8}}`, "BENCH_machine.json:serial.speedup"},
		{"a grid missing from the fresh file is an error", machineFile, speedups, machineBase,
			`{"serial": {"speedup": 10}}`, "error"},
		{"a path through a number is an error", machineFile, speedups, machineBase,
			`{"serial": 10, "mixed": {"speedup": 8}}`, "error"},
		{"compile cost falling passes", compileFile, costs, compileBase,
			`{"allocs_per_compile": 4000, "ns_per_compile": 2400000}`, "ok"},
		{"a compile cost rise beyond the margin fails", compileFile, costs, compileBase,
			`{"allocs_per_compile": 8000, "ns_per_compile": 2600000}`, "BENCH_compile.json:ns_per_compile"},
		{"a compile key missing from the fresh file is an error", compileFile, costs, compileBase,
			`{"allocs_per_compile": 8000}`, "error"},
		{"record cost within the margin passes", machineFile, scalars, scalarsBase,
			scalarsWith("record_ns", "4900000"), "ok"},
		{"a record cost rise beyond the margin fails", machineFile, scalars, scalarsBase,
			scalarsWith("record_ns", "5100000"), "BENCH_machine.json:record_ns"},
		{"a walk cost rise beyond the margin fails", machineFile, scalars, scalarsBase,
			scalarsWith("walk_ns", "2600000"), "BENCH_machine.json:walk_ns"},
		{"an all-kernel walk cost rise beyond the margin fails", machineFile, scalars, scalarsBase,
			scalarsWith("walk_all_ns", "10400000"), "BENCH_machine.json:walk_all_ns"},
		{"an all-kernel record cost rise beyond the margin fails", machineFile, scalars, scalarsBase,
			scalarsWith("record_all_ns", "37600000"), "BENCH_machine.json:record_all_ns"},
		{"trace bytes off by one fail an exact gate", machineFile, scalars, scalarsBase,
			scalarsWith("trace_bytes_all", "1900712"), "BENCH_machine.json:trace_bytes_all"},
		{"a fresh file without record_all_ns is an error", machineFile, scalars, scalarsBase,
			scalarsWith("record_all_ns", ""), "error"},
		{"a fresh file without walk_all_ns is an error", machineFile, scalars, scalarsBase,
			scalarsWith("walk_all_ns", ""), "error"},
		{"a baseline without walk_ns is an error", machineFile, scalars, scalarsWith("walk_ns", ""),
			scalarsBase, "error"},
		{"a non-numeric value is an error", machineFile, scalars, scalarsBase,
			scalarsWith("record_ns", `"4000000"`), "error"},
		{"a zero timing is an error", machineFile, scalars, scalarsBase,
			scalarsWith("record_ns", "0"), "error"},
		{"equal build counts pass", compileFile, counts, countsBase,
			`{"builds_compiled": 10, "builds_reused": 54, "ns_per_compile": 2400000}`, "ok"},
		{"one more full compile fails an exact gate", compileFile, counts, countsBase,
			`{"builds_compiled": 11, "builds_reused": 53}`, "BENCH_compile.json:builds_compiled"},
		{"more reuse than the baseline fails an exact gate too", compileFile, counts, countsBase,
			`{"builds_compiled": 9, "builds_reused": 55}`, "BENCH_compile.json:builds_reused"},
		{"a fresh file without builds_reused is an error", compileFile, counts, countsBase,
			`{"builds_compiled": 10}`, "error"},
		{"an identical whole file passes", hardenFile, wholeRow, hardenBase, hardenBase, "ok"},
		{"a whole file that differs by one byte fails", hardenFile, wholeRow, hardenBase,
			strings.Replace(hardenBase, "0", "1", 1), hardenFile},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rows []row
			for _, r := range table {
				for _, p := range tc.paths {
					if r.file == tc.file && r.path == p {
						rows = append(rows, r)
					}
				}
			}
			if len(rows) != len(tc.paths) {
				t.Fatalf("the table has %d of the rows %q of %s", len(rows), tc.paths, tc.file)
			}
			base, fresh := t.TempDir(), t.TempDir()
			for dir, body := range map[string]string{base: tc.base, fresh: tc.fresh} {
				if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var out strings.Builder
			ok, err := guard(&out, rows, base, fresh)
			switch {
			case tc.want == "error":
				if err == nil {
					t.Fatalf("want an error, got ok=%v\n%s", ok, out.String())
				}
			case err != nil:
				t.Fatal(err)
			case ok != (tc.want == "ok"):
				t.Fatalf("ok = %v, want %s\n%s", ok, tc.want, out.String())
			case !ok && !strings.Contains(out.String(), "FAIL "+tc.want+" "):
				t.Fatalf("output does not fail %s:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestTableResolvesInCommittedFiles runs the whole table against the
// committed files at the repository root as both baseline and fresh
// copy, so a renamed or removed field fails `go test`, not only CI.
func TestTableResolvesInCommittedFiles(t *testing.T) {
	root := filepath.Join("..", "..")
	ok, err := guard(io.Discard, table, root, root)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("a committed file fails against itself")
	}
}
