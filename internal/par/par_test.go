package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d, want 5", got)
	}
}

func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 57
		counts := make([]atomic.Int64, n)
		if err := Each(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestEachReturnsLowestIndexError(t *testing.T) {
	wantErr := errors.New("boom 3")
	for _, workers := range []int{1, 4} {
		err := Each(workers, 10, func(i int) error {
			switch i {
			case 3:
				return wantErr
			case 7:
				return errors.New("boom 7")
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Errorf("workers=%d: got %v, want lowest-index error %v", workers, err, wantErr)
		}
	}
}

func TestEachSerialStopsAtFirstError(t *testing.T) {
	ran := 0
	err := Each(1, 10, func(i int) error {
		ran++
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran != 3 {
		t.Errorf("serial Each ran %d items after error at index 2, want 3", ran)
	}
}

func TestEachZeroItems(t *testing.T) {
	if err := Each(4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := make([]int, 123)
	for i := range in {
		in[i] = i
	}
	for _, workers := range []int{1, 8} {
		out, err := Map(workers, in, func(v int) (string, error) {
			return fmt.Sprintf("v%d", v), nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, s := range out {
			if want := fmt.Sprintf("v%d", i); s != want {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, s, want)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	wantErr := errors.New("bad element")
	out, err := Map(4, []int{0, 1, 2}, func(v int) (int, error) {
		if v == 1 {
			return 0, wantErr
		}
		return v * 2, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want %v", err, wantErr)
	}
	if out != nil {
		t.Fatalf("got non-nil result %v on error", out)
	}
}

func TestEachCtxCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	const n = 100
	errCh := make(chan error, 1)
	go func() {
		errCh <- EachCtx(ctx, 4, n, func(i int) error {
			started.Add(1)
			<-release
			return nil
		})
	}()
	// wait for the 4 workers to pick up their first items
	for started.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	// EachCtx must return promptly even though 4 items are still blocked
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("EachCtx did not return after cancel")
	}
	close(release)
	// idle workers must not have claimed (many) more items after cancel
	if got := started.Load(); got > 8 {
		t.Fatalf("started %d items after cancel, want <= 8", got)
	}
}

// TestEachCtxCancelSingleItem: with more than one worker, a lone item
// still runs off the calling goroutine, so cancelling returns promptly
// instead of waiting for it (a whole sweep group is one item).
func TestEachCtxCancelSingleItem(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	errCh := make(chan error, 1)
	go func() {
		errCh <- EachCtx(ctx, 2, 1, func(int) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("EachCtx waited for its in-flight item after cancel")
	}
}

func TestEachCtxSerialChecksBetweenItems(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := EachCtx(ctx, 1, 10, func(i int) error {
		ran++
		if i == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d items, want 3 (stop after the cancelling item)", ran)
	}
}

func TestEachCtxBackgroundMatchesEach(t *testing.T) {
	var a, b atomic.Int64
	if err := Each(3, 50, func(i int) error { a.Add(int64(i)); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := EachCtx(context.Background(), 3, 50, func(i int) error { b.Add(int64(i)); return nil }); err != nil {
		t.Fatal(err)
	}
	if a.Load() != b.Load() {
		t.Fatalf("sums differ: %d vs %d", a.Load(), b.Load())
	}
}
