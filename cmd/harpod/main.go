// Command harpod is the Harpocrates fleet worker: a small HTTP server
// that grades evaluation batches and runs fault-injection shards on
// behalf of a coordinator (faultsim -workers / harpocrates -workers),
// and — with -pull — a work-stealing client of a harpoq job queue:
// idle workers long-poll the coordinator for the next ready shard, so
// heterogeneous fleets self-balance with no tuning.
//
// Usage:
//
//	harpod -addr 0.0.0.0:9090
//	harpod -addr 0.0.0.0:9090 -pull http://queue-host:9900
//
// The worker is stateless — every request carries the full campaign or
// evaluation configuration, and it writes nothing to disk — so workers
// can join, die and be replaced at any point without coordination. A
// shard already computed is answered by the coordinator, never leased.
// The -name and -golden-cache-entries flags configure the pull worker
// only and are refused without -pull.
//
// GET /metrics serves the Prometheus text exposition on the same
// listener.
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

	"harpocrates/internal/dist"
	"harpocrates/internal/obs"
	"harpocrates/internal/queue"
)

func main() {
	var (
		addr               = flag.String("addr", "127.0.0.1:9090", "address to listen on")
		pull               = flag.String("pull", "", "harpoq coordinator URL to pull shards from (work-stealing mode)")
		name               = flag.String("name", "", "with -pull: worker name reported in leases (default addr)")
		goldenCacheEntries = flag.Int("golden-cache-entries", 0, "with -pull: in-memory golden bundles (0 = default)")
		tracePath          = flag.String("trace", "", "write a JSONL event trace to this file")
		metrics            = flag.Bool("metrics", false, "print a metrics summary at exit")
		pprofAddr          = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *pull == "" {
		// Only queue.NewWorker reads these; accepting them in push mode
		// would silently ignore them.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "name", "golden-cache-entries":
				fmt.Fprintf(os.Stderr, "harpod: -%s only applies to a -pull worker; add -pull <harpoq URL>\n", f.Name)
				os.Exit(2)
			}
		})
	}

	ob, obFinish, err := obs.SetupCLI(*tracePath, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The worker always carries a registry: /metrics must work even
	// without -metrics.
	if ob.Registry() == nil {
		ob = obs.New(obs.NewRegistry(), ob.Tracer())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler:           dist.NewServer(ob).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("harpod worker listening on http://%s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	// Pull mode: work-steal from the queue coordinator alongside the
	// push endpoint.
	pullCtx, pullCancel := context.WithCancel(context.Background())
	pullDone := make(chan struct{})
	if *pull != "" {
		wname := *name
		if wname == "" {
			wname = ln.Addr().String()
		}
		worker, err := queue.NewWorker(*pull, queue.WorkerOptions{
			Name:               wname,
			GoldenCacheEntries: *goldenCacheEntries,
			Obs:                ob,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("harpod pulling shards from %s as %q\n", *pull, wname)
		go func() {
			defer close(pullDone)
			worker.Run(pullCtx)
		}()
	} else {
		close(pullDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "harpod: %v, shutting down\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		cancel()
		<-done
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	pullCancel()
	<-pullDone
	if err := obFinish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
