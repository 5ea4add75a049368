package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJSON writes one fixture file and returns its path.
func writeJSON(t *testing.T, name, body string) *string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return &path
}

const machineBase = `{"benchmark": "MachineSweep", "serial": {"speedup": 10}, "mixed": {"speedup": 8}, "speedup": 10}`
const compileBase = `{"benchmark": "CompileProfile", "allocs_per_compile": 8000, "ns_per_compile": 2000000}`

var (
	loadCompile = loadScalars("allocs_per_compile", "ns_per_compile")
	loadRecord  = loadScalars("record_ns")
	loadMachine = loadScalars(machineScalars...)
	loadCounts  = loadScalars(compileCounts...)
)

const countsBase = `{"builds_compiled": 10, "builds_reused": 54, "ns_per_compile": 2000000}`

func TestGuard(t *testing.T) {
	cases := []struct {
		name      string
		base      string
		fresh     string
		load      func(string) (map[string]float64, error)
		higher    bool
		exact     bool
		wantOK    bool
		wantFail  string // a key the output must report as FAIL
		wantError bool
	}{
		{
			name:   "speedups within the margin pass",
			base:   machineBase,
			fresh:  `{"serial": {"speedup": 7.6}, "mixed": {"speedup": 9}}`,
			load:   loadSpeedups,
			higher: true,
			wantOK: true,
		},
		{
			name:     "a speedup drop beyond the margin fails",
			base:     machineBase,
			fresh:    `{"serial": {"speedup": 7.4}, "mixed": {"speedup": 8}}`,
			load:     loadSpeedups,
			higher:   true,
			wantFail: "serial",
		},
		{
			name:   "compile cost falling passes",
			base:   compileBase,
			fresh:  `{"allocs_per_compile": 4000, "ns_per_compile": 2400000}`,
			load:   loadCompile,
			wantOK: true,
		},
		{
			name:     "a compile cost rise beyond the margin fails",
			base:     compileBase,
			fresh:    `{"allocs_per_compile": 8000, "ns_per_compile": 2600000}`,
			load:     loadCompile,
			wantFail: "ns_per_compile",
		},
		{
			name:   "record cost within the margin passes",
			base:   `{"record_ns": 4000000, "serial": {"speedup": 10}}`,
			fresh:  `{"record_ns": 4900000, "serial": {"speedup": 6}}`,
			load:   loadRecord,
			wantOK: true,
		},
		{
			name:     "a record cost rise beyond the margin fails",
			base:     `{"record_ns": 4000000, "serial": {"speedup": 10}}`,
			fresh:    `{"record_ns": 5100000, "serial": {"speedup": 12}}`,
			load:     loadRecord,
			wantFail: "record_ns",
		},
		{
			name:     "a walk cost rise beyond the margin fails",
			base:     `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 30000000}`,
			fresh:    `{"record_ns": 3000000, "walk_ns": 2600000, "walk_all_ns": 8000000, "record_all_ns": 30000000}`,
			load:     loadMachine,
			wantFail: "walk_ns",
		},
		{
			name:     "an all-kernel walk cost rise beyond the margin fails",
			base:     `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 30000000}`,
			fresh:    `{"record_ns": 4000000, "walk_ns": 1600000, "walk_all_ns": 10400000, "record_all_ns": 30000000}`,
			load:     loadMachine,
			wantFail: "walk_all_ns",
		},
		{
			name:     "an all-kernel record cost rise beyond the margin fails",
			base:     `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 30000000}`,
			fresh:    `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 37600000}`,
			load:     loadMachine,
			wantFail: "record_all_ns",
		},
		{
			name:      "a fresh file without record_all_ns is an error",
			base:      `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 30000000}`,
			fresh:     `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000}`,
			load:      loadMachine,
			wantError: true,
		},
		{
			name:      "a baseline without walk_ns is an error",
			base:      `{"record_ns": 4000000, "serial": {"speedup": 10}}`,
			fresh:     `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 30000000}`,
			load:      loadMachine,
			wantError: true,
		},
		{
			name:      "a fresh file without walk_all_ns is an error",
			base:      `{"record_ns": 4000000, "walk_ns": 2000000, "walk_all_ns": 8000000, "record_all_ns": 30000000}`,
			fresh:     `{"record_ns": 4000000, "walk_ns": 2000000, "record_all_ns": 30000000}`,
			load:      loadMachine,
			wantError: true,
		},
		{
			name:     "a grid missing from the fresh file fails",
			base:     machineBase,
			fresh:    `{"serial": {"speedup": 10}}`,
			load:     loadSpeedups,
			higher:   true,
			wantFail: "mixed",
		},
		{
			name:   "equal build counts pass",
			base:   countsBase,
			fresh:  `{"builds_compiled": 10, "builds_reused": 54, "ns_per_compile": 2400000}`,
			load:   loadCounts,
			exact:  true,
			wantOK: true,
		},
		{
			name:     "one more full compile fails an exact gate",
			base:     countsBase,
			fresh:    `{"builds_compiled": 11, "builds_reused": 53}`,
			load:     loadCounts,
			exact:    true,
			wantFail: "builds_compiled",
		},
		{
			name:     "more reuse than the baseline fails an exact gate too",
			base:     countsBase,
			fresh:    `{"builds_compiled": 9, "builds_reused": 55}`,
			load:     loadCounts,
			exact:    true,
			wantFail: "builds_reused",
		},
		{
			name:      "a fresh file without builds_reused is an error",
			base:      countsBase,
			fresh:     `{"builds_compiled": 10}`,
			load:      loadCounts,
			exact:     true,
			wantError: true,
		},
		{
			name:      "a compile key missing from the fresh file is an error",
			base:      compileBase,
			fresh:     `{"allocs_per_compile": 8000}`,
			load:      loadCompile,
			wantError: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gate{
				baseline:       writeJSON(t, "base.json", tc.base),
				fresh:          writeJSON(t, "fresh.json", tc.fresh),
				load:           tc.load,
				higherIsBetter: tc.higher,
				exact:          tc.exact,
			}
			var out strings.Builder
			ok, err := guard(&out, g, 0.25)
			if tc.wantError {
				if err == nil {
					t.Fatalf("want an error, got ok=%v\n%s", ok, out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v\n%s", ok, tc.wantOK, out.String())
			}
			if tc.wantFail != "" && !strings.Contains(out.String(), "FAIL "+pad(tc.wantFail)) {
				t.Fatalf("output does not fail %s:\n%s", tc.wantFail, out.String())
			}
		})
	}
}

// pad matches guard's %-18s key column.
func pad(key string) string {
	return key + strings.Repeat(" ", 18-len(key))
}
