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
)

func TestGuard(t *testing.T) {
	cases := []struct {
		name      string
		base      string
		fresh     string
		load      func(string) (map[string]float64, error)
		higher    bool
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
			name:     "a grid missing from the fresh file fails",
			base:     machineBase,
			fresh:    `{"serial": {"speedup": 10}}`,
			load:     loadSpeedups,
			higher:   true,
			wantFail: "mixed",
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
