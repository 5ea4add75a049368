package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func keyN(n int) Key { return KeyOf([]byte(fmt.Sprintf("key-%d", n))) }

// getBytes is GetCtx for a byte-valued entry.
func getBytes(ctx context.Context, c *Cache, key Key, compute func() ([]byte, error)) ([]byte, error) {
	v, err := c.GetCtx(ctx, key, func() (any, error) { return compute() })
	data, _ := v.([]byte)
	return data, err
}

func TestKeyOfLengthPrefixed(t *testing.T) {
	if KeyOf([]byte("ab"), []byte("c")) == KeyOf([]byte("a"), []byte("bc")) {
		t.Fatal("KeyOf must distinguish part boundaries")
	}
	if KeyOf([]byte("a")) == KeyOf([]byte("a"), nil) {
		t.Fatal("KeyOf must distinguish part counts")
	}
	if KeyOf([]byte("a")) != KeyOf([]byte("a")) {
		t.Fatal("KeyOf must be deterministic")
	}
}

func TestMemoizeBytes(t *testing.T) {
	c := New(0)
	computes := 0
	get := func() ([]byte, error) {
		return getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			computes++
			return []byte("value"), nil
		})
	}
	for i := 0; i < 3; i++ {
		v, err := get()
		if err != nil || string(v) != "value" {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	s := c.Stats()
	if s.MemHits != 2 || s.MemMisses != 1 || s.Computes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestContainsCountsNothing pins Contains: true for an entry complete
// or in flight, false for an absent, evicted or disabled one, and never
// a lookup in the counters.
func TestContainsCountsNothing(t *testing.T) {
	c := New(2)
	if c.Contains(keyN(1)) {
		t.Fatal("empty cache contains key 1")
	}
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			<-release
			return []byte("v"), nil
		})
	}()
	for !c.Contains(keyN(1)) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	if !c.Contains(keyN(1)) {
		t.Fatal("completed entry not contained")
	}
	for _, n := range []int{2, 3} {
		getBytes(context.Background(), c, keyN(n), func() ([]byte, error) { return []byte("v"), nil })
	}
	if c.Contains(keyN(1)) {
		t.Fatal("evicted entry still contained")
	}
	before := c.Stats()
	c.SetEnabled(false)
	if c.Contains(keyN(3)) {
		t.Fatal("a disabled cache contains nothing")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("Contains moved the counters: %+v -> %+v", before, after)
	}
}

// TestObjectTierIsMemoryOnly pins that an object entry is held in memory
// as the value compute returned: every hit shares it.
func TestObjectTierIsMemoryOnly(t *testing.T) {
	c := New(0)
	type big struct{ n int }
	v, err := c.GetCtx(context.Background(), keyN(3), func() (any, error) { return &big{42}, nil })
	if err != nil || v.(*big).n != 42 {
		t.Fatalf("%v, %v", v, err)
	}
	v2, _ := c.GetCtx(context.Background(), keyN(3), func() (any, error) {
		t.Fatal("must be memoized")
		return nil, nil
	})
	if v2 != v {
		t.Fatal("object identity must be stable across hits")
	}
	if s := c.Stats(); s.MemHits != 1 || s.MemMisses != 1 || s.Computes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestResetDropsMemoryKeepsDisk pins that Reset drops every entry, so the
// next lookup recomputes. The cache has no tier below memory, so nothing
// survives a Reset.
func TestResetDropsMemoryKeepsDisk(t *testing.T) {
	c := New(0)
	computes := 0
	get := func() ([]byte, error) {
		return getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			computes++
			return []byte("v"), nil
		})
	}
	get()
	c.Reset()
	v, err := get()
	if err != nil || string(v) != "v" {
		t.Fatalf("%q, %v", v, err)
	}
	if computes != 2 {
		t.Fatalf("computes = %d after Reset, want 2", computes)
	}
	if s := c.Stats(); s.MemHits != 0 || s.MemMisses != 2 {
		t.Fatalf("stats = %+v, want two misses and no hit", s)
	}
}

func TestErrorsMemoized(t *testing.T) {
	c := New(0)
	computes := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			computes++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (deterministic failures are memoized)", computes)
	}
}

// TestSingleflight pins that concurrent misses at one key share a single
// computation instead of duplicating the work.
func TestSingleflight(t *testing.T) {
	c := New(0)
	release := make(chan struct{})
	var computes int
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := getBytes(context.Background(), c, keyN(7), func() ([]byte, error) {
				computes++ // safe: only one goroutine may get here
				<-release
				return []byte("shared"), nil
			})
			if err != nil || string(v) != "shared" {
				t.Errorf("got %q, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
}

func TestEvictionFIFO(t *testing.T) {
	c := New(2)
	for i := 0; i < 3; i++ {
		getBytes(context.Background(), c, keyN(i), func() ([]byte, error) { return []byte{byte(i)}, nil })
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// key 0 was evicted: a re-get recomputes
	recomputed := false
	getBytes(context.Background(), c, keyN(0), func() ([]byte, error) { recomputed = true; return nil, nil })
	if !recomputed {
		t.Fatal("oldest entry should have been evicted")
	}
	// key 2 survived
	getBytes(context.Background(), c, keyN(2), func() ([]byte, error) {
		t.Fatal("newest entry should still be resident")
		return nil, nil
	})
}

// TestEvictionOrderPinned pins the eviction order across both in-place
// removals: a forgotten entry leaves from the middle of the order, an
// in-flight head is skipped (so a later entry goes first), and every
// other entry still leaves oldest-first.
func TestEvictionOrderPinned(t *testing.T) {
	put := func(c *Cache, n int) {
		getBytes(context.Background(), c, keyN(n), func() ([]byte, error) { return []byte{byte(n)}, nil })
	}
	resident := func(c *Cache, want ...int) {
		t.Helper()
		for n := 0; n < 8; n++ {
			c.mu.Lock()
			_, got := c.mem[keyN(n)]
			c.mu.Unlock()
			exp := false
			for _, w := range want {
				exp = exp || w == n
			}
			if got != exp {
				t.Errorf("key %d resident = %v, want %v (want set %v)", n, got, exp, want)
			}
		}
	}
	// slowly computes key n; the returned func finishes it with err
	inflight := func(c *Cache, n int) func(error) {
		started, release := make(chan struct{}), make(chan error)
		done := make(chan struct{})
		go func() {
			defer close(done)
			getBytes(context.Background(), c, keyN(n), func() ([]byte, error) {
				close(started)
				err := <-release
				return []byte{byte(n)}, err
			})
		}()
		<-started
		return func(err error) { release <- err; <-done }
	}

	// a cancelled owner is forgotten from the middle of the order
	c := New(3)
	put(c, 0)
	finish := inflight(c, 1)
	put(c, 2)
	finish(context.Canceled)
	put(c, 3) // room left by the forgotten key: no eviction
	resident(c, 0, 2, 3)
	put(c, 4)
	resident(c, 2, 3, 4)
	put(c, 5)
	resident(c, 3, 4, 5)

	// an in-flight head is skipped; the next-oldest complete entry goes
	c = New(2)
	finish = inflight(c, 0)
	put(c, 1)
	put(c, 2)
	finish(nil)
	resident(c, 0, 2)
	put(c, 3)
	resident(c, 2, 3)
	if got := c.Stats().Evictions; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}

	// removal reuses the order's backing array (after head advances, the
	// insert's append regrows it once per few hundred evictions, which
	// rounds to zero per run)
	c = New(0)
	for n := 0; n < 511; n++ {
		c.order = append(c.order, keyN(n))
	}
	for _, i := range []int{0, 7} {
		k := keyN(i)
		if a := testing.AllocsPerRun(100, func() {
			c.removeOrder(i)
			c.order = append(c.order, k)
		}); a != 0 {
			t.Errorf("removeOrder(%d) + append: %v allocs per run, want 0", i, a)
		}
	}
}

func TestDisabledBypassesAllTiers(t *testing.T) {
	c := New(0)
	c.SetEnabled(false)
	computes := 0
	for i := 0; i < 2; i++ {
		getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { computes++; return []byte("x"), nil })
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 while disabled", computes)
	}
	if s := c.Stats(); s.MemHits != 0 || s.MemMisses != 0 {
		t.Fatalf("disabled cache looked entries up: %+v", s)
	}
	c.SetEnabled(true)
	getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { computes++; return []byte("x"), nil })
	getBytes(context.Background(), c, keyN(1), func() ([]byte, error) { computes++; return []byte("x"), nil })
	if computes != 3 {
		t.Fatalf("computes = %d, want 3 after re-enable", computes)
	}
}

// TestConcurrentMixed drives many goroutines across overlapping keys —
// byte entries and object entries, under eviction and concurrent
// Resets; run under -race this is the cache's thread-safety gate.
func TestConcurrentMixed(t *testing.T) {
	c := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := i % 8
				want := fmt.Sprintf("v%d", k)
				v, err := getBytes(context.Background(), c, keyN(k), func() ([]byte, error) {
					return []byte(fmt.Sprintf("v%d", k)), nil
				})
				if err != nil || string(v) != want {
					t.Errorf("g%d i%d: %q, %v", g, i, v, err)
					return
				}
				if g%4 == 0 && i%25 == 24 {
					c.Reset()
				}
				ov, err := c.GetCtx(context.Background(), keyN(100+k), func() (any, error) { return k, nil })
				if err != nil || ov != k {
					t.Errorf("object: %v, %v", ov, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCtxWaiterCancelled proves singleflight waiters honor their
// context: a waiter blocked on another caller's slow computation
// returns ctx.Err() promptly instead of blocking until the owner
// finishes.
func TestCtxWaiterCancelled(t *testing.T) {
	c := New(0)
	computing := make(chan struct{})
	release := make(chan struct{})
	go func() {
		getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			close(computing)
			<-release
			return []byte("slow"), nil
		})
	}()
	<-computing
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := getBytes(ctx, c, keyN(1), func() ([]byte, error) {
			return nil, errors.New("waiter must not compute")
		})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(release)
	// the owner's value is memoized normally
	v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
		return nil, errors.New("must be memoized")
	})
	if err != nil || string(v) != "slow" {
		t.Fatalf("after release: %q, %v", v, err)
	}
}

// TestCtxErrorNotMemoized proves an owner whose compute surfaces a
// context error does not poison the key: the entry is forgotten and the
// next caller recomputes.
func TestCtxErrorNotMemoized(t *testing.T) {
	c := New(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
		// a nested ctx-aware computation bubbling up its caller's
		// cancellation
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || string(v) != "fresh" {
		t.Fatalf("recompute after ctx error: %q, %v", v, err)
	}
	// real errors stay memoized (the existing contract)
	boom := errors.New("boom")
	getBytes(context.Background(), c, keyN(2), func() ([]byte, error) { return nil, boom })
	_, err = getBytes(context.Background(), c, keyN(2), func() ([]byte, error) {
		return nil, errors.New("must not recompute")
	})
	if !errors.Is(err, boom) {
		t.Fatalf("memoized error = %v, want boom", err)
	}
}

// TestPanicDoesNotDeadlockWaiters proves a panicking compute releases
// its waiters (they retry and become owners) instead of leaving them
// blocked on a never-closed ready channel.
func TestPanicDoesNotDeadlockWaiters(t *testing.T) {
	c := New(0)
	started := make(chan struct{})
	go func() {
		defer func() { recover() }()
		getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			close(started)
			// give the waiter time to block on ready
			time.Sleep(50 * time.Millisecond)
			panic("compute exploded")
		})
	}()
	<-started
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := getBytes(context.Background(), c, keyN(1), func() ([]byte, error) {
			return []byte("recovered"), nil
		})
		if err != nil || string(v) != "recovered" {
			t.Errorf("waiter after panic: %q, %v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked behind a panicking owner")
	}
}
