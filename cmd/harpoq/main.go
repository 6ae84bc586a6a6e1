// Command harpoq is the Harpocrates campaign-as-a-service coordinator:
// a durable job queue that accepts fault-injection campaigns and GA
// evaluation batches over HTTP, shards them, serves every shard some
// earlier job already computed from its own job table (content-addressed
// by program, configuration and fault spec), and hands the rest to
// pulling workers (work-stealing): harpod -pull processes, or its own
// in-process workers with -local.
//
// Usage:
//
//	harpoq -addr 0.0.0.0:9900 -data /var/lib/harpoq
//	harpoq -addr 0.0.0.0:9900 -data ./q -local 4
//
// Every job and shard completion is persisted to an append-only
// CRC-checked write-ahead log, -data/wal.log, the only file -data holds;
// it is also the result cache. Every start replays it: kill -9 the
// coordinator mid-campaign, restart it, and the queue resumes exactly
// where it was (in-flight shards are re-queued; logged shards are not
// re-run). On SIGINT/SIGTERM the coordinator drains outstanding leases,
// syncs and closes the log and exits cleanly. A -data dir holding an
// older build's job-table snapshot is refused (exit 1): start such a
// coordinator on an empty directory.
//
// GET /metrics serves the Prometheus text exposition of every queue and
// simulator counter on the same listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"harpocrates/internal/obs"
	"harpocrates/internal/queue"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9900", "address to listen on")
		dataDir      = flag.String("data", "harpoq-data", "durable state directory (the WAL, which also serves repeated shards)")
		shardSize    = flag.Int("shard-size", 32, "campaign specs per shard")
		evalShard    = flag.Int("eval-shard-size", 8, "genotypes per eval shard")
		leaseTimeout = flag.Duration("lease-timeout", 2*time.Minute, "re-queue a leased shard after this long")
		localExec    = flag.Int("local", 0, "in-process workers (work with no fleet)")
		drain        = flag.Duration("drain", 30*time.Second, "shutdown lease-drain budget")
		tracePath    = flag.String("trace", "", "write a JSONL event trace to this file")
		metrics      = flag.Bool("metrics", false, "print a metrics summary at exit")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this address")
	)
	flag.Parse()

	ob, obFinish, err := obs.SetupCLI(*tracePath, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The coordinator always carries a registry: /metrics must work even
	// without -metrics.
	if ob.Registry() == nil {
		ob = obs.New(obs.NewRegistry(), ob.Tracer())
	}

	coord, err := queue.NewCoordinator(queue.Options{
		DataDir:       *dataDir,
		ShardSize:     *shardSize,
		EvalShardSize: *evalShard,
		LeaseTimeout:  *leaseTimeout,
		LocalExec:     *localExec,
		Obs:           ob,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler:           queue.NewServer(coord).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("harpoq coordinator listening on http://%s (data: %s)\n", ln.Addr(), *dataDir)

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	exitCode := 0
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "harpoq: %v, draining\n", s)
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
			exitCode = 1
		}
	}

	// Graceful shutdown: start the drain first — it answers the workers'
	// parked long polls, which hs.Shutdown would otherwise wait out —
	// then wait for outstanding leases while the listener can still
	// take their completions, stop accepting HTTP, then sync and close
	// the WAL.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	coord.Drain()
	coord.WaitLeases(ctx)
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	if err := coord.Close(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "harpoq: shutdown:", err)
		exitCode = 1
	}
	cancel()
	if err := obFinish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		exitCode = 1
	}
	os.Exit(exitCode)
}
