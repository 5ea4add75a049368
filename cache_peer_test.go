package repro_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/cache"
	"repro/internal/workloads"
)

// The tests in this file pin the peer boundary of the compilation
// cache: a peer that answers every lookup with bytes that are not a
// trace or a profile changes neither a run nor a build, and leaves
// nothing behind on disk.

// lyingPeer is a remote cache tier whose every lookup "hits" with
// garbage and which drops every store.
type lyingPeer struct{}

func (lyingPeer) Get(context.Context, cache.Key) ([]byte, bool) { return []byte("garbage"), true }
func (lyingPeer) Put(context.Context, cache.Key, []byte)        {}

func peerWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName("equake")
	if !ok {
		t.Fatal("equake not registered")
	}
	return w
}

// TestLyingPeerTraceRecomputed runs a build on a cold trace key with a
// lying peer installed: the run matches the peer-free run exactly, the
// garbage is counted corrupt, and later runs stay correct after the peer
// is gone.
func TestLyingPeerTraceRecomputed(t *testing.T) {
	ctx := context.Background()
	w := peerWorkload(t)
	c, err := repro.CompileCtx(ctx, w.Src, repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs})
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.RunCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatal(err)
	}

	repro.ResetCaches() // the trace key is cold again
	repro.SetCacheRemote(lyingPeer{})
	defer repro.SetCacheRemote(nil)
	corrupt0 := repro.CacheStats().Corrupt
	got, err := c.RunCtx(ctx, w.RefArgs)
	if err != nil {
		t.Fatalf("run with a lying peer: %v", err)
	}
	if got.Output != want.Output || got.Counters != want.Counters {
		t.Errorf("run with a lying peer differs:\n%+v\nvs\n%+v", got.Counters, want.Counters)
	}
	if repro.CacheStats().Corrupt == corrupt0 {
		t.Error("the peer's garbage trace was not counted corrupt")
	}

	repro.SetCacheRemote(nil)
	again, err := c.RunCtx(ctx, w.RefArgs)
	if err != nil || again.Output != want.Output || again.Counters != want.Counters {
		t.Fatalf("run after removing the peer: %v", err)
	}
}

// TestLyingPeerProfileNotPersisted builds on a cold profile key with a
// cache dir and a lying peer: the build equals the peer-free build, and
// after dropping the memory tier and the peer, the same dir still
// compiles without error.
func TestLyingPeerProfileNotPersisted(t *testing.T) {
	ctx := context.Background()
	w := peerWorkload(t)
	cfg := repro.Config{Spec: repro.SpecProfile, ProfileArgs: w.ProfileArgs}
	defer func() {
		repro.SetCacheRemote(nil)
		if err := repro.SetCacheDir(""); err != nil {
			t.Fatal(err)
		}
		repro.ResetCaches()
	}()
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
			t.Errorf("%s build differs from the peer-free build", name)
		}
	}

	if err := repro.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	repro.ResetCaches()
	want := build("peer-free")

	if err := repro.SetCacheDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	repro.ResetCaches()
	repro.SetCacheRemote(lyingPeer{})
	same("lying-peer", build("lying-peer"), want)

	repro.SetCacheRemote(nil)
	repro.ResetCaches()
	same("warm-disk", build("warm-disk"), want)
}
