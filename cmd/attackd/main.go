// Command attackd is the attack-as-a-service daemon: a long-running
// HTTP/JSON front end over the attack registry. Clients POST a locked
// circuit (BENCH format, plus an optional oracle circuit or key-confirm
// candidate list) with an attack name and solver spec, get a job ID
// back, poll GET /jobs/{id}, stream status via GET /jobs/{id}/events
// (SSE or NDJSON), and fetch the result artifact from
// GET /jobs/{id}/result.
//
//	attackd -addr :8080 -dir /var/lib/attackd
//
// Jobs persist as atomically written JSON files under -dir, so a
// restarted daemon serves finished artifacts and resumes unfinished
// jobs. SIGINT/SIGTERM drain gracefully: dispatch stops, in-flight
// jobs get -drain to finish, stragglers are cancelled mid-solve and go
// back to the queue for the next daemon. Backpressure is explicit:
// a full queue or an over-rate tenant gets 429 + Retry-After. One
// daemon owns a -dir; planned work spreads over machines through
// `campaign run` workers sharing one directory instead.
//
// Observability: structured logs on stderr (-log-format text|json, one
// line per job transition and per API request), every daemon
// statistic as Prometheus text at GET /metrics.prom, per-job span
// traces at GET /jobs/{id}/trace (bounded ring of -trace-spans spans;
// analyze with cmd/tracestat), and net/http/pprof on a separate
// listener behind -pprof-addr.
//
// Exit codes: 0 clean shutdown after drain (or -h); 1 usage or hard
// error (stderr explains).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/attack"
	_ "repro/internal/attack/all"
	"repro/internal/server"
)

func main() {
	// A bad flag exits 1 like any other hard error; -h exits 0.
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		dir         = flag.String("dir", "attackd-jobs", "job store directory (jobs survive restarts)")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "job worker-pool size")
		queueDepth  = flag.Int("queue", 256, "bounded job-queue depth; submissions beyond it get 429")
		tenantConc  = flag.Int("tenant-concurrency", 0, "max concurrently running jobs per tenant (X-API-Key header; 0 = unlimited)")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant submission rate limit in jobs/second (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 10, "per-tenant submission burst size")
		jobWorkers  = flag.Int("job-workers", runtime.GOMAXPROCS(0), "intra-attack worker cap per job")
		jobTimeout  = flag.Duration("job-timeout", 0, "time budget for jobs that set none (0 = unbounded)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown grace: in-flight jobs get this long to finish before being cancelled back to the queue")
		quiet       = flag.Bool("quiet", false, "suppress per-job and per-request log lines")
		memo        = attack.RegisterMemoFlags(flag.CommandLine)
		logFormat   = flag.String("log-format", "text", "structured log format on stderr: text | json")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		traceSpans  = flag.Int("trace-spans", 2048, "per-job span-trace ring capacity served at GET /jobs/{id}/trace (0 = disable per-job tracing)")
	)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(1)
	}

	cfg := server.Config{
		Dir:               *dir,
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		TenantConcurrency: *tenantConc,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		JobWorkers:        *jobWorkers,
		JobTimeout:        *jobTimeout,
		TraceSpans:        *traceSpans,
	}
	if !*quiet {
		switch *logFormat {
		case "text":
			cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		case "json":
			cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		default:
			fatalf("unknown -log-format %q (want text or json)", *logFormat)
		}
	}
	if m, err := attack.NewMemoFromFlags(memo.Enabled, memo.Dir, memo.MaxBytes); err != nil {
		fatalf("%v", err)
	} else {
		cfg.Memo = m
	}
	srv, err := server.New(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	srv.Start()

	if *pprofAddr != "" {
		// The blank net/http/pprof import registers its handlers on the
		// default mux; the API server uses its own mux, so the profiler
		// is reachable only through this listener.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "attackd: pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "attackd: pprof on %s\n", *pprofAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		errCh <- httpSrv.ListenAndServe()
	}()
	fmt.Fprintf(os.Stderr, "attackd: listening on %s, job store %s\n", *addr, *dir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatalf("%v", err)
		}
	}

	// Shutdown order matters: close the listener first so no new jobs
	// arrive, then drain the worker pool. Both phases share the grace
	// budget; after it, in-flight solves are cancelled mid-query (the
	// context-first plumbing makes that safe) and those jobs revert to
	// queued on disk for the next daemon.
	fmt.Fprintln(os.Stderr, "attackd: shutting down, draining jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain+5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	srv.Drain(*drain)
	fmt.Fprintln(os.Stderr, "attackd: drained")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "attackd: "+format+"\n", args...)
	os.Exit(1)
}
