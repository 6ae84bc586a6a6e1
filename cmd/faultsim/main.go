// Command faultsim runs a statistical fault-injection campaign (the
// GeFIN-style evaluation of §II-E) on a chosen test program: a baseline
// suite workload or a freshly generated random program.
//
// Usage:
//
//	faultsim -list
//	faultsim -suite mibench -prog mibench/qsort -target l1d -n 100
//	faultsim -random 2000 -target intadd -type intermittent -n 50
//	faultsim -corpus corpus/ -target irf -n 100 -resume
//	faultsim -queue http://queue-host:9900 -suite mibench -prog mibench/qsort -n 100
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"harpocrates"
	"harpocrates/internal/baselines/dcdiag"
	"harpocrates/internal/baselines/mibench"
	"harpocrates/internal/corpus"
	"harpocrates/internal/coverage"
	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
	"harpocrates/internal/obs"
	"harpocrates/internal/prog"
	"harpocrates/internal/queue"
	"harpocrates/internal/uarch"
)

func main() {
	var (
		suite  = flag.String("suite", "mibench", "program source: mibench, dcdiag")
		name   = flag.String("prog", "", "program name within the suite")
		random = flag.Int("random", 0, "use a freshly generated random program of N instructions instead")
		load   = flag.String("load", "", "load a saved .hxpg program file instead")
		target = flag.String("target", "irf", "target structure: irf, l1d, fprf, intadd, intmul, fpadd, fpmul, decoder, lsq (gshare, rob and l2 are not fault targets)")
		ftype  = flag.String("type", "", "fault type: transient, intermittent, permanent (default per structure)")
		n      = flag.Int("n", 50, "number of injections")
		seed   = flag.Uint64("seed", 1, "random seed")
		scale  = flag.Int("scale", 1, "workload scale")
		window = flag.Uint64("window", 100, "intermittent fault window (cycles)")
		burst  = flag.Int("burst", 1, "multi-bit upset width for bit-array targets (adjacent bits per injection)")
		asJSON = flag.Bool("json", false, "print the campaign result as one JSON object on stdout")
		list   = flag.Bool("list", false, "list available programs and exit")

		corpusDir = flag.String("corpus", "", "rank a corpus archive: run the campaign on every archived program of the target structure and record detection metadata")
		resume    = flag.Bool("resume", false, "with -corpus: skip entries already measured under this fault model (type, -n, -seed, -window, -burst): resume an interrupted sweep")

		workers  = flag.String("workers", "", "comma-separated harpod worker URLs to shard the campaign across (e.g. http://host1:9090,http://host2:9090)")
		queueURL = flag.String("queue", "", "harpoq coordinator URL: submit the campaign as a durable queue job and await the merged result")
		priority = flag.Int("priority", 0, "with -queue: job priority (higher leases first)")

		tracePath = flag.String("trace", "", "write a JSONL event trace to this file")
		metrics   = flag.Bool("metrics", false, "print a metrics summary at exit")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	ob, obFinish, err := obs.SetupCLI(*tracePath, *metrics, *pprofAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// The -json output always reports the golden-cache counters; when
	// the CLI observer carries no registry (no -metrics), attach one so
	// the campaign has somewhere to count.
	if ob.Registry() == nil {
		ob = obs.New(obs.NewRegistry(), ob.Tracer())
	}

	suites := map[string][]*prog.Program{
		"mibench": mibench.Programs(*scale),
		"dcdiag":  dcdiag.Programs(*scale),
	}
	if *list {
		for _, s := range []string{"mibench", "dcdiag"} {
			for _, p := range suites[s] {
				fmt.Printf("%-8s %s (%d instructions)\n", s, p.Name, len(p.Insts))
			}
		}
		return
	}

	st, err := coverage.Parse(*target)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ft := inject.DefaultFaultType(st)
	if *ftype != "" {
		var err error
		if ft, err = inject.ParseFaultType(*ftype); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// The campaign is the fault model; each mode below gives it its
	// program(s). Refuse a model the injector lacks before printing
	// anything.
	c := &inject.Campaign{
		Target:          st,
		Type:            ft,
		N:               *n,
		IntermittentLen: *window,
		BurstLen:        *burst,
		Seed:            *seed,
		Cfg:             uarch.DefaultConfig(),
		GoldenCache:     inject.SharedGoldenCache(),
		Obs:             ob,
	}
	if err := c.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *corpusDir != "" {
		// Corpus mode: rank the archive instead of one program. With
		// -resume, entries already measured under this fault model are
		// skipped, so an interrupted sweep picks up where it stopped.
		store, err := corpus.Open(*corpusDir, ob)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("ranking corpus %s: target=%v faults=%v injections=%d\n", *corpusDir, st, ft, *n)
		ranked, skipped, err := store.Rank(c, !*resume, func(m *corpus.Meta, s *inject.Stats) {
			fmt.Printf("  %s  %s\n", m.Hash, s)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("ranked %d programs (%d already measured, skipped)\n", ranked, skipped)
		if err := obFinish(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var p *prog.Program
	switch {
	case *load != "":
		var err error
		p, err = prog.Load(*load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *random > 0:
		cfg := harpocrates.DefaultGenConfig()
		cfg.NumInstrs = *random
		p = harpocrates.Generate(&cfg, *seed)
		p.Name = fmt.Sprintf("random-%d", *random)
	default:
		for _, cand := range suites[*suite] {
			if *name == "" || cand.Name == *name {
				p = cand
				break
			}
		}
		if p == nil {
			fmt.Fprintf(os.Stderr, "program %q not found in suite %q (try -list)\n", *name, *suite)
			os.Exit(2)
		}
	}

	c.Prog, c.Init, c.ProgramHash = p.Insts, p.InitFunc(), corpus.HashProgram(p)
	fmt.Printf("program %s: %d instructions\n", p.Name, len(p.Insts))
	fmt.Printf("campaign: target=%v faults=%v injections=%d\n", st, ft, *n)
	var stats *inject.Stats
	switch {
	case *queueURL != "":
		// Queue mode: the campaign becomes a durable job; progress goes
		// to stderr so -json keeps a jq-stable stdout.
		client := queue.NewClient(*queueURL)
		sub, err := client.SubmitCampaign(c, p, *priority)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "queued %s: %d shards (%d served from cache)\n", sub.ID, sub.Shards, sub.CacheHits)
		lastDone := -1
		res, err := client.Await(sub.ID, func(st *dist.JobStatus) {
			if st.Done != lastDone {
				lastDone = st.Done
				fmt.Fprintf(os.Stderr, "  %s: %d/%d shards done (%d cached)\n", st.ID, st.Done, st.Shards, st.Cached)
			}
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if res.State != dist.JobStateDone || res.Stats == nil {
			fmt.Fprintf(os.Stderr, "job %s ended %s without stats\n", sub.ID, res.State)
			os.Exit(1)
		}
		stats = res.Stats
	case *workers != "":
		pool := dist.New(strings.Split(*workers, ","), dist.Options{Obs: ob})
		fmt.Printf("fleet: %d/%d workers healthy\n", pool.Probe(), pool.Size())
		stats, err = pool.RunCampaign(c, p)
	default:
		stats, err = c.Run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("golden: %d cycles\n", stats.GoldenCycles)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(campaignJSON(p.Name, st, ft, *seed, stats, ob)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Println(" ", stats)
	}
	if err := obFinish(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// campaignResult is the -json output schema: one object per campaign,
// stable field names for jq-based CI gates.
type campaignResult struct {
	Program      string  `json:"program"`
	Target       string  `json:"target"`
	Type         string  `json:"type"`
	Seed         uint64  `json:"seed"`
	N            int     `json:"n"`
	Masked       int     `json:"masked"`
	SDC          int     `json:"sdc"`
	Crash        int     `json:"crash"`
	Hang         int     `json:"hang"`
	Trap         int     `json:"trap"`
	Detected     int     `json:"detected"`
	Detection    float64 `json:"detection"`
	GoldenCycles uint64  `json:"golden_cycles"`
	// Golden-cache counters for this process (always present, so jq
	// gates can assert reuse without guarding missing fields; 0 in
	// queue/workers modes, where golden runs happen remotely).
	GoldenCacheHits   int64 `json:"golden_cache_hits"`
	GoldenCacheMisses int64 `json:"golden_cache_misses"`
}

func campaignJSON(name string, st coverage.Structure, ft inject.FaultType, seed uint64, s *inject.Stats, ob *obs.Observer) campaignResult {
	return campaignResult{
		Program:           name,
		Target:            st.String(),
		Type:              ft.String(),
		Seed:              seed,
		N:                 s.N,
		Masked:            s.Masked,
		SDC:               s.SDC,
		Crash:             s.Crash,
		Hang:              s.Hang,
		Trap:              s.Trap,
		Detected:          s.Detected(),
		Detection:         s.Detection(),
		GoldenCycles:      s.GoldenCycles,
		GoldenCacheHits:   ob.Counter("inject.golden.cache.hits").Load(),
		GoldenCacheMisses: ob.Counter("inject.golden.cache.misses").Load(),
	}
}
