package repro_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/workloads"
)

// The tests in this file pin the disk boundary of the compilation
// cache: entries whose checksum is valid but whose payload is not a
// trace or a profile change neither a run nor a build, are counted
// corrupt, and are replaced on disk by a good entry.

// poisonCacheDir rewrites every entry under dir as a checksum-valid
// envelope around the payload "garbage", so only the entry's codec can
// tell it is wrong. It fails the test if dir holds no entry.
func poisonCacheDir(t *testing.T, dir string) {
	t.Helper()
	payload := []byte("garbage")
	header := fmt.Sprintf("reprocache v%d %x\n", cache.Version, sha256.Sum256(payload))
	entries, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("v%d", cache.Version), "*.cache"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("the cold pass left no disk entries to poison")
	}
	for _, path := range entries {
		if err := os.WriteFile(path, append([]byte(header), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// useCacheDir points the compilation cache at a fresh dir with an empty
// memory tier, and restores a memory-only cache when the test ends.
func useCacheDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := repro.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	repro.ResetCaches()
	t.Cleanup(func() {
		if err := repro.SetCacheDir(""); err != nil {
			t.Error(err)
		}
		repro.ResetCaches()
	})
	return dir
}

func diskWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("equake not registered")
	}
	return w
}

// TestGarbageDiskTraceRecomputed runs a build cold with a cache dir,
// poisons every disk entry, drops the memory tier and runs again: the
// run matches the clean one, the garbage is counted corrupt, and a
// second warm pass is served from the repaired entry.
func TestGarbageDiskTraceRecomputed(t *testing.T) {
	ctx := context.Background()
	w := diskWorkload(t)
	dir := useCacheDir(t)
	c, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.RunCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatal(err)
	}

	poisonCacheDir(t, dir)
	repro.ResetCaches()
	corrupt0 := repro.CacheStats().Corrupt
	got, err := c.RunCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatalf("run over a poisoned cache dir: %v", err)
	}
	if got.Output != want.Output || got.Counters != want.Counters {
		t.Errorf("run over a poisoned cache dir differs:\n%+v\nvs\n%+v", got.Counters, want.Counters)
	}
	if repro.CacheStats().Corrupt == corrupt0 {
		t.Error("the garbage trace was not counted corrupt")
	}

	repro.ResetCaches()
	hits0 := repro.CacheStats().DiskHits
	again, err := c.RunCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatalf("warm run after the repair: %v", err)
	}
	if again.Output != want.Output || again.Counters != want.Counters {
		t.Errorf("warm run after the repair differs:\n%+v\nvs\n%+v", again.Counters, want.Counters)
	}
	if repro.CacheStats().DiskHits == hits0 {
		t.Error("the warm run was not served from the repaired disk entry")
	}
}

// TestGarbageDiskProfileRecomputed builds cold with a cache dir,
// poisons every disk entry, drops the memory tier and builds again: the
// build equals the clean one, the garbage is counted corrupt, and a
// second warm pass compiles without error or a profiling run.
func TestGarbageDiskProfileRecomputed(t *testing.T) {
	ctx := context.Background()
	w := diskWorkload(t)
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	dir := useCacheDir(t)
	// build reports a failed build and returns nil, so every step runs
	build := func(name string) *repro.Build {
		t.Helper()
		b, err := repro.BuildCtx(ctx, w.Src, cfg)
		if err == nil {
			err = b.ProfileErr
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			return nil
		}
		return b
	}
	same := func(name string, got, want *repro.Build) {
		t.Helper()
		if got == nil || want == nil {
			return
		}
		if got.Code.Fingerprint() != want.Code.Fingerprint() || !reflect.DeepEqual(got.TotalStats(), want.TotalStats()) {
			t.Errorf("%s build differs from the clean build", name)
		}
	}

	want := build("clean")
	poisonCacheDir(t, dir)
	repro.ResetCaches()
	corrupt0 := repro.CacheStats().Corrupt
	same("poisoned", build("poisoned"), want)
	if repro.CacheStats().Corrupt == corrupt0 {
		t.Error("the garbage profile was not counted corrupt")
	}

	repro.ResetCaches()
	runs0 := repro.ProfilingRuns()
	same("warm", build("warm"), want)
	if d := repro.ProfilingRuns() - runs0; d != 0 {
		t.Errorf("warm build ran %d profiling runs, want 0 (the repaired entry was not persisted)", d)
	}
}
