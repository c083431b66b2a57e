// Command pybenchd is the benchmarking-as-a-service daemon: the rigorous
// harness behind an HTTP/JSON control plane. Clients submit campaign
// specifications (benchmarks, arms, seeds, fault/isolation policy), the
// daemon schedules them onto a bounded queue with per-tenant quotas,
// streams progress as Server-Sent Events, and persists every accepted
// campaign in a crash-safe WAL ledger — kill -9 the daemon mid-campaign,
// restart it on the same data directory, and the interrupted work resumes
// from its checkpoint journals.
//
// Usage:
//
//	pybenchd -addr 127.0.0.1:7070 -data /var/lib/pybenchd
//
// Knobs: -queue (pending-campaign bound), -slots (concurrent campaigns),
// -tenant-quota (in-flight campaigns per tenant), -max-steps / -max-wall
// (per-invocation budget ceilings clamped onto every submission),
// -drain-timeout (graceful-shutdown grace; past it, running campaigns
// stop and stay journaled for the next start to resume). -addr-file
// writes the resolved listen address (for -addr :0 harnesses).
// -chaos-crash-after N arms the chaos hook: the first campaign executed
// SIGKILLs the daemon after N invocation slots — the crash-recovery
// suite's way of producing a genuine kill -9.
//
// SIGINT/SIGTERM drain gracefully: running campaigns finish (up to
// -drain-timeout, then stop as kill -9 would stop them), and every
// unfinished campaign stays journaled for the next start to resume.
//
// Exit codes follow the repository taxonomy: 0 = clean shutdown,
// 2 = usage, 3 = infrastructure failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/controlapi"
	"repro/internal/exitcode"
	"repro/internal/harness"
	"repro/internal/version"
)

func main() {
	// The hidden re-exec mode: campaign specs with "isolate" run every
	// invocation attempt in a watchdogged child, and the harness resolves
	// that child by re-executing its own binary with -worker.
	if len(os.Args) == 2 && os.Args[1] == "-worker" {
		if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "pybenchd -worker:", err)
			os.Exit(exitcode.Infra)
		}
		return
	}
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address (host:port; port 0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the resolved listen address to FILE (for -addr :0 harnesses)")
		dataDir      = flag.String("data", ".pybenchd", "data directory: job ledger, checkpoint journals, result documents")
		queueDepth   = flag.Int("queue", 32, "max accepted-but-unstarted campaigns before submissions get 429")
		slots        = flag.Int("slots", 2, "campaigns executed concurrently")
		tenantQuota  = flag.Int("tenant-quota", 4, "max in-flight (queued+running) campaigns per tenant")
		maxSteps     = flag.Uint64("max-steps", 0, "per-invocation step-budget ceiling clamped onto every submission (0 = service default)")
		maxWall      = flag.Duration("max-wall", 0, "per-invocation wall-budget ceiling clamped onto every submission (0 = service default)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown grace; past it, running campaigns stop and stay journaled for the next start to resume")
		crashAfter   = flag.Int("chaos-crash-after", 0, "chaos hook: first campaign executed kills this process (SIGKILL) after N invocation slots (0 = off; never production)")
		showVersion  = flag.Bool("version", false, "print version, Go version, and platform, then exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String())
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "pybenchd: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(exitcode.Usage)
	}
	logger := log.New(os.Stderr, "pybenchd: ", log.LstdFlags|log.LUTC) //benchlint:allow clock — operational log timestamps
	if err := run(options{
		addr:         *addr,
		addrFile:     *addrFile,
		dataDir:      *dataDir,
		queueDepth:   *queueDepth,
		slots:        *slots,
		tenantQuota:  *tenantQuota,
		maxSteps:     *maxSteps,
		maxWall:      *maxWall,
		drainTimeout: *drainTimeout,
		crashAfter:   *crashAfter,
	}, logger); err != nil {
		logger.Print(err)
		os.Exit(exitcode.Infra)
	}
}

type options struct {
	addr, addrFile, dataDir        string
	queueDepth, slots, tenantQuota int
	maxSteps                       uint64
	maxWall, drainTimeout          time.Duration
	crashAfter                     int
}

func run(o options, logger *log.Logger) error {
	srv, err := controlapi.New(controlapi.Options{
		DataDir:         o.dataDir,
		QueueDepth:      o.queueDepth,
		Slots:           o.slots,
		TenantQuota:     o.tenantQuota,
		MaxStepBudget:   o.maxSteps,
		MaxWallBudget:   o.maxWall,
		CrashAfterSlots: o.crashAfter,
		// A genuine kill -9: no deferred functions, no flushing, no
		// journaling. The ledger must already be durable — that is the
		// property the crash-recovery suite verifies.
		CrashFunc: func() {
			logger.Print("chaos crash point tripped; sending SIGKILL to self")
			//benchlint:allow uncheckederr — SIGKILL to self cannot be handled
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable; SIGKILL is not deliverable to a handler
		},
		Logf: logger.Printf,
	})
	if err != nil {
		return err
	}
	srv.Start()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", o.addr, err)
	}
	resolved := ln.Addr().String()
	if o.addrFile != "" {
		// Written atomically so a polling harness never reads a torn file.
		tmp := o.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(resolved+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing addr file: %w", err)
		}
		if err := os.Rename(tmp, o.addrFile); err != nil {
			return fmt.Errorf("writing addr file: %w", err)
		}
	}
	logger.Printf("serving on http://%s (data %s, %d slots, queue %d, tenant quota %d)",
		resolved, o.dataDir, o.slots, o.queueDepth, o.tenantQuota)

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return fmt.Errorf("serving: %w", err)
	case s := <-sig:
		logger.Printf("received %s; draining (running campaigns finish, queued stay journaled)", s)
	}

	// Graceful shutdown: stop accepting, let running campaigns finish
	// within the grace period, stop them past it without finalizing.
	// Unfinished campaigns stay in the ledger — the next start re-enqueues
	// and resumes them.
	ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		//benchlint:allow uncheckederr — the drain error wins over listener close
		hs.Close()
		return fmt.Errorf("draining: %w", err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		//benchlint:allow uncheckederr — best-effort close after failed graceful shutdown
		hs.Close()
	}
	logger.Print("drained; goodbye")
	return nil
}
