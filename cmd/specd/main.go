// Command specd is the compile-and-evaluate service: a long-running
// HTTP front end over the speculative-compilation pipeline with
// admission control, per-request timeouts, cancellation threaded down
// to the worker pool, and live metrics.
//
// Usage:
//
//	specd [flags]
//
//	-addr            listen address (default :8080)
//	-workers         max jobs executing concurrently (0 = one per core)
//	-queue           max admitted jobs waiting beyond the workers (0 = workers)
//	-timeout         per-request deadline (default 60s)
//	-cache-dir       persist profiles/traces under this directory
//	-cache-max-bytes prune the disk cache to this budget on shutdown (0 = unbounded)
//	-adaptive        enable the online tier-management runtime: served
//	                 evaluations feed a per-function mis-speculation
//	                 monitor, functions whose check-failure rate crosses
//	                 the threshold are demoted down a tier ladder
//	                 (recompiled, specheck-verified, and hot-swapped),
//	                 and clean traffic re-promotes them
//	-pprof           serve net/http/pprof on a separate address (off by default)
//
// Endpoints: POST /compile, POST /evaluate, POST /sweep, GET /workloads,
// GET /healthz, GET /metrics.
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting
// work (new and queued jobs get 503), finishes jobs already executing,
// prunes the disk cache to its budget, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux for -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/cli"
	"repro/internal/server"
)

func main() { cli.Main("specd", run) }

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "max jobs executing concurrently (0 = one per core)")
	queue := flag.Int("queue", 0, "max admitted jobs waiting for a worker slot (0 = workers)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline (negative = none)")
	cacheDir := flag.String("cache-dir", "", "persist profiles/traces under this directory across runs")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "prune the disk cache to this many bytes on shutdown (0 = unbounded)")
	adaptiveOn := flag.Bool("adaptive", false, "enable online tier management: monitor served evaluations, demote mis-speculating functions, re-promote on clean traffic")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = off")
	flag.Parse()
	if flag.NArg() != 0 {
		return cli.Usagef("unexpected arguments: %v", flag.Args())
	}

	if *cacheDir != "" {
		if err := repro.SetCacheDir(*cacheDir); err != nil {
			return err
		}
	}
	logger := log.New(os.Stderr, "specd ", log.LstdFlags|log.Lmsgprefix)
	s := server.New(server.Config{
		Workers:  *workers,
		Queue:    *queue,
		Timeout:  *timeout,
		Logger:   logger,
		Adaptive: *adaptiveOn,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	if *pprofAddr != "" {
		// profiling stays off the public API port: pprof handlers
		// register on http.DefaultServeMux, served by a second listener
		// that is opt-in and should be bound to localhost
		go func() {
			logger.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (workers=%d queue=%d timeout=%s adaptive=%v)", *addr, *workers, *queue, *timeout, *adaptiveOn)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// the listener failed before any signal — a bad -addr, a port
		// in use — and that is a startup error, not a drain
		return err
	case <-ctx.Done():
	}

	// graceful drain: reject new and queued work, finish in-flight jobs
	// (Shutdown waits for active handlers), then flush the disk tier
	logger.Printf("signal received, draining")
	s.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if *cacheDir != "" && *cacheMaxBytes > 0 {
		freed, err := cache.Prune(*cacheDir, *cacheMaxBytes)
		if err != nil {
			return fmt.Errorf("cache prune: %w", err)
		}
		logger.Printf("pruned disk cache to %d bytes budget (freed %d bytes)", *cacheMaxBytes, freed)
	}
	logger.Printf("drained, exiting")
	return nil
}
