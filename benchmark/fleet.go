package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"harpocrates"
	"harpocrates/internal/dist"
	"harpocrates/internal/inject"
	"harpocrates/internal/queue"
	"harpocrates/internal/stats"
)

// stopDeadline bounds every daemon shutdown: a hung shard or lease
// fails the run instead of wedging it.
const stopDeadline = 10 * time.Second

// fleetTiming splits one queued job as the traced run sees it.
type fleetTiming struct {
	total, submit, serverDone, pollWait, inproc time.Duration
	shards, cacheHits                           int
}

// fleetInst submits one IRF campaign per operation to a loopback fleet,
// one client, closed loop.
type fleetInst struct {
	rc   *runCtx
	name string
	// run pushes one campaign through the fleet and times the client call.
	run  func(f *fleetInst, c *harpocrates.Campaign, p *harpocrates.Program, i, parent int) (*inject.Stats, fleetTiming, error)
	stop func() error

	urls    []string              // every daemon's base URL
	fresh   bool                  // a repeated job would be answered by the result cache
	results map[int]*inject.Stats // per slot, the first pass's
	timings []fleetTiming         // traced run only

	// queue fleets
	coord    *queue.Coordinator
	client   *queue.Client
	walPath  string
	walStart int64
	cold     []*inject.Stats // fleet-queue-warm: the jobs set-up ran cold
	// push fleet
	pool *dist.Pool
}

// mod is the non-negative remainder (warm-up operations have negative
// indices).
func mod(i, n int) int { return ((i % n) + n) % n }

// job is the campaign of one slot: a program of the FleetPrograms-long
// panel and an injection seed of the slot's own. On fleet-queue every
// pass draws fresh faults, so that the result cache has never seen the
// job; elsewhere a pass repeats the job exactly. Programs repeat so that
// the workers' golden caches are in their steady state (set-up runs
// every program once): with a new program per job the run-to-run median
// swung 2x with how far the 64-bundle (~11 MB each) golden cache had
// grown into fresh memory, which says nothing about the queue, wire and
// scheduler layers these workloads are here for.
func (f *fleetInst) job(slot, pass int) (*harpocrates.Campaign, *harpocrates.Program) {
	if n := len(f.cold); n > 0 {
		slot = mod(slot, n) // warm operations cycle over the jobs set-up ran cold
	}
	seed := f.rc.derive(slot)
	if f.fresh {
		seed = stats.Mix64(seed, uint64(pass))
	}
	g := harpocrates.Preset(harpocrates.IRF, 1).Gen
	p := harpocrates.Generate(&g, f.rc.derive(mod(slot, f.rc.sz.FleetPrograms)))
	c := harpocrates.NewDetectionCampaign(p, harpocrates.IRF, f.rc.sz.FleetN, seed)
	c.Workers = f.rc.threads
	return c, p
}

// prime runs one job per program so every golden bundle is resident
// before anything is timed. Its slots lie below every warm-up's, so a
// warm-up operation is still a job the result cache has not seen.
func (f *fleetInst) prime() error {
	for j := 1; j <= f.rc.sz.FleetPrograms; j++ {
		if _, err := f.op(-1000-j, 0); err != nil {
			f.stop()
			return err
		}
	}
	return nil
}

func (f *fleetInst) op(slot, pass int) (opSample, error) {
	c, p := f.job(slot, pass)
	tr := f.rc.tr
	opSpan := tr.start(f.name+".op", 0, slot)
	st, t, err := f.run(f, c, p, slot, opSpan)
	tr.end(opSpan)
	sample := opSample{dur: t.total}
	if err != nil {
		return sample, err
	}
	sample.work = float64(st.N)
	if len(st.Outcomes) != st.N || st.N != f.rc.sz.FleetN || st.Masked+st.Detected() != st.N {
		return sample, fmt.Errorf("inconsistent stats %+v", st)
	}
	if n := len(f.cold); n > 0 && !st.Equal(f.cold[mod(slot, n)]) {
		return sample, fmt.Errorf("warm result differs from cold")
	}
	if first, ok := f.results[slot]; !ok {
		f.results[slot] = st
	} else if !f.fresh && !st.Equal(first) {
		return sample, fmt.Errorf("repetition differs from the first pass")
	}
	if tr != nil && slot >= 0 {
		// The same campaign in process, so the trace can say what the
		// fleet added on top of it.
		sp := tr.start("inject.inprocess", 0, slot)
		t0 := time.Now()
		_, err = c.Run()
		t.inproc = time.Since(t0)
		tr.end(sp)
		f.timings = append(f.timings, t)
	}
	return sample, err
}

func runQueued(f *fleetInst, c *harpocrates.Campaign, p *harpocrates.Program, i, parent int) (*inject.Stats, fleetTiming, error) {
	tr := f.rc.tr
	t0 := time.Now()
	sp := tr.start("queue.submit", parent, i)
	sub, err := f.client.SubmitCampaign(c, p, 0)
	tr.end(sp)
	tSubmit := time.Now()
	if err != nil {
		return nil, fleetTiming{total: tSubmit.Sub(t0)}, err
	}
	var serverDone chan time.Time
	if tr != nil {
		// Watch the coordinator from inside the process: the moment it has
		// the merged result, against the moment the polling client sees it.
		serverDone = make(chan time.Time, 1)
		go func() {
			f.coord.Wait(sub.ID)
			serverDone <- time.Now()
		}()
	}
	sp = tr.start("queue.client_await", parent, i)
	res, err := f.client.Await(sub.ID, nil)
	tr.end(sp)
	tClient := time.Now()
	t := fleetTiming{total: tClient.Sub(t0), submit: tSubmit.Sub(t0), shards: sub.Shards, cacheHits: sub.CacheHits}
	if tr != nil {
		tServer := <-serverDone
		tr.add("queue.server", parent, i, t0, tServer)
		t.serverDone, t.pollWait = tServer.Sub(t0), max(tClient.Sub(tServer), 0)
	}
	if err != nil {
		return nil, t, err
	}
	if res.State != dist.JobStateDone || res.Stats == nil {
		return nil, t, fmt.Errorf("job %s ended %s without stats", sub.ID, res.State)
	}
	return res.Stats, t, nil
}

func runPushed(f *fleetInst, c *harpocrates.Campaign, p *harpocrates.Program, i, parent int) (*inject.Stats, fleetTiming, error) {
	sp := f.rc.tr.start("dist.pool.run_campaign", parent, i)
	t0 := time.Now()
	st, err := f.pool.RunCampaign(c, p)
	t := fleetTiming{total: time.Since(t0)}
	f.rc.tr.end(sp)
	return st, t, err
}

// verify checks the first VerifyOps slots against the in-process
// Campaign.Run of the same job.
func (f *fleetInst) verify() []string {
	var bad []string
	for i := 0; i < f.rc.sz.VerifyOps; i++ {
		got, ok := f.results[i]
		if !ok {
			continue
		}
		c, _ := f.job(i, 0)
		want, err := c.Run()
		if err != nil || !got.Equal(want) {
			bad = append(bad, fmt.Sprintf("%s slot %d: fleet result differs from in-process Campaign.Run (err %v)", f.name, i, err))
		}
	}
	return bad
}

func (f *fleetInst) digest(k int) uint64 {
	h := uint64(stats.HashInit)
	for i := 0; i < k; i++ {
		if st, ok := f.results[i]; ok {
			h = foldStats(h, st)
		}
	}
	return h
}

func (f *fleetInst) input() probeInput {
	c, p := f.job(0, 0)
	return probeInput{prog: p, gen: harpocrates.Preset(harpocrates.IRF, 1).Gen,
		st: harpocrates.IRF, typ: c.Type, n: c.N, stats: f.results[0]}
}

func (f *fleetInst) insitu(m map[string]float64) {
	var submit, server, poll, inproc, over []float64
	var shards, hits int
	for _, t := range f.timings {
		inproc = append(inproc, ms(t.inproc))
		if f.coord == nil {
			over = append(over, ms(t.total-t.inproc))
			continue
		}
		submit = append(submit, ms(t.submit))
		server = append(server, ms(t.serverDone))
		poll = append(poll, ms(t.pollWait))
		over = append(over, ms(t.serverDone-t.inproc))
		shards += t.shards
		hits += t.cacheHits
	}
	m["inject.inprocess_ms"] = median(inproc)
	if f.coord == nil {
		m["dist.push_overhead_ms_per_job"] = median(over)
		return
	}
	m["queue.submit_ms"] = median(submit)
	m["queue.server_done_ms"] = median(server)
	m["queue.client_poll_wait_ms"] = median(poll)
	m["queue.overhead_ms_per_job"] = median(over)
	if shards > 0 {
		m["queue.warm_cache_hit_share"] = float64(hits) / float64(shards)
	}
	if fi, err := os.Stat(f.walPath); err == nil && len(f.timings) > 0 {
		m["queue.wal_bytes_per_job"] = float64(fi.Size()-f.walStart) / float64(len(f.timings))
	}
}

func (f *fleetInst) close() error { return f.stop() }

// serve starts an HTTP server on a loopback port the kernel picks and
// returns its base URL and a stop function that waits for it to end.
func serve(h http.Handler) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		if serr := <-done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// closeIdle drops the keep-alive connections the repo's clients (which
// all use the default transport) leave behind. It runs before the
// servers shut down: a connection the transport dialled but never used
// would otherwise hold http.Server.Shutdown for five seconds.
func closeIdle() {
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

func setupQueueFleet(rc *runCtx, name string) (*fleetInst, error) {
	dir, err := os.MkdirTemp(rc.outDir, name+"-*")
	if err != nil {
		return nil, err
	}
	coord, err := queue.NewCoordinator(queue.Options{
		DataDir: dir, ShardSize: max(rc.sz.FleetN/rc.sz.FleetShards, 1), Obs: rc.ob,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	url, stopHTTP, err := serve(queue.NewServer(coord).Handler())
	if err != nil {
		coord.Close(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var workers []*queue.Worker
	stop := func() error {
		cancel()
		wg.Wait()
		dctx, dcancel := context.WithTimeout(context.Background(), stopDeadline)
		defer dcancel()
		var errs []error
		for _, w := range workers {
			errs = append(errs, w.Close())
		}
		closeIdle()
		errs = append(errs, stopHTTP(dctx), coord.Close(dctx), os.RemoveAll(dir))
		return errors.Join(errs...)
	}
	for w := 0; w < rc.threads; w++ {
		worker, err := queue.NewWorker(url, queue.WorkerOptions{
			Name: fmt.Sprintf("w%d", w), WaitMs: 100, Obs: rc.ob,
			// Room for every program of the panel in every one of the
			// golden cache's 16 shards, whatever their hashes.
			GoldenCacheEntries: 16 * rc.sz.FleetPrograms,
		})
		if err != nil {
			stop()
			return nil, err
		}
		workers = append(workers, worker)
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker.Run(ctx)
		}()
	}
	client := queue.NewClient(url)
	// The default 200 ms would quantise every job of this size to one
	// poll tick; the interval is scaled down with the job.
	client.PollInterval = time.Duration(rc.sz.PollMs) * time.Millisecond
	return &fleetInst{rc: rc, name: name, run: runQueued, stop: stop, results: map[int]*inject.Stats{},
		coord: coord, client: client, walPath: filepath.Join(dir, "wal.log"), urls: []string{url}}, nil
}

func (f *fleetInst) markWAL() {
	if fi, err := os.Stat(f.walPath); err == nil {
		f.walStart = fi.Size()
	}
}

func setupFleetQueue(rc *runCtx) (instance, error) {
	f, err := setupQueueFleet(rc, "fleet-queue")
	if err != nil {
		return nil, err
	}
	f.fresh = true
	if err := f.prime(); err != nil {
		return nil, err
	}
	f.markWAL()
	return f, nil
}

func setupFleetQueueWarm(rc *runCtx) (instance, error) {
	f, err := setupQueueFleet(rc, "fleet-queue-warm")
	if err != nil {
		return nil, err
	}
	// Run the jobs cold once; every timed operation resubmits one.
	var cold []*inject.Stats
	for j := 0; j < rc.sz.WarmJobs; j++ {
		if _, err := f.op(j, 0); err != nil {
			f.stop()
			return nil, err
		}
		cold = append(cold, f.results[j])
	}
	f.cold, f.results, f.timings = cold, map[int]*inject.Stats{}, nil
	f.markWAL()
	return f, nil
}

func setupFleetPush(rc *runCtx) (instance, error) {
	var urls []string
	var stops []func(context.Context) error
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), stopDeadline)
		defer cancel()
		closeIdle()
		var errs []error
		for _, s := range stops {
			errs = append(errs, s(ctx))
		}
		return errors.Join(errs...)
	}
	for w := 0; w < rc.threads; w++ {
		url, s, err := serve(dist.NewServer(rc.ob).Handler())
		if err != nil {
			stop()
			return nil, err
		}
		urls, stops = append(urls, url), append(stops, s)
	}
	pool := dist.New(urls, dist.Options{ShardsPerWorker: max(rc.sz.FleetShards/rc.threads, 1), Obs: rc.ob})
	if alive := pool.Probe(); alive != rc.threads {
		stop()
		return nil, fmt.Errorf("fleet-push: %d of %d loopback workers answered", alive, rc.threads)
	}
	f := &fleetInst{rc: rc, name: "fleet-push", run: runPushed, stop: stop,
		results: map[int]*inject.Stats{}, pool: pool, urls: urls}
	return f, f.prime()
}
