package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/rtcl/bcp"
)

// The provision workload is the paper's evaluation load: all 4032 ordered
// pairs of the 8×8 torus (200 Mbps links), one backup each at multiplexing
// degree 3. One closed-loop cycle establishes the whole load on a fresh
// manager through EstablishBatch, sweeps all 2016 double-node failures
// through SweepParallel, and churns a seeded sample of connections
// (teardown, then re-establish the same request) on the loaded plan.
const (
	provisionDegree = 3
	// provisionChurn is how many connections each cycle tears down and
	// re-establishes, one at a time.
	provisionChurn = 256
	// provisionSetups is how many times set-up runs to report its median.
	provisionSetups = 5
)

type provision struct {
	g        *bcp.Graph
	reqs     []bcp.EstablishRequest
	failures []bcp.Failure
	ref      *bcp.Manager // serially established reference plan
	refRFast float64      // serial Sweep R_fast on the reference plan
	workers  int
}

func newProvision() (*provision, error) {
	g := bcp.NewTorus(8, 8, 200)
	p := &provision{g: g, workers: runtime.NumCPU()}
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				p.reqs = append(p.reqs, bcp.EstablishRequest{
					Src: bcp.NodeID(s), Dst: bcp.NodeID(d),
					Spec: bcp.DefaultSpec(), Degrees: []int{provisionDegree},
				})
			}
		}
	}
	p.failures = bcp.AllDoubleNodeFailures(g, 0, 0)
	p.ref = bcp.NewManager(g, bcp.DefaultConfig())
	for _, r := range p.reqs {
		if _, err := p.ref.Establish(r.Src, r.Dst, r.Spec, r.Degrees); err != nil {
			return nil, fmt.Errorf("reference plan: %d->%d: %w", r.Src, r.Dst, err)
		}
	}
	p.refRFast = bcp.Sweep(p.ref, p.failures, bcp.DefaultExperimentOptions()).RFast
	return p, nil
}

// provisionCycle is one cycle's measurements.
type provisionCycle struct {
	batch, sweep, churn time.Duration
	batchStats          bcp.BatchResult
	rfast               float64
	churnOps            samples // teardown + re-establish of one connection
	teardowns, creates  samples
	churnFailed         int
}

// cycle runs one closed-loop provision cycle with the given churn RNG and
// returns the loaded manager for checking.
func (p *provision) cycle(rng *rand.Rand) (*bcp.Manager, provisionCycle) {
	var c provisionCycle
	mgr := bcp.NewManager(p.g, bcp.DefaultConfig())
	start := time.Now()
	c.batchStats = mgr.EstablishBatch(p.reqs, bcp.BatchOptions{Workers: p.workers})
	c.batch = time.Since(start)

	start = time.Now()
	opts := bcp.DefaultExperimentOptions()
	opts.Workers = p.workers
	c.rfast = bcp.SweepParallel(mgr, p.failures, opts).RFast
	c.sweep = time.Since(start)

	conns := mgr.Connections()
	start = time.Now()
	for i := 0; i < provisionChurn && len(conns) > 0; i++ {
		j := rng.Intn(len(conns))
		old := conns[j]
		t0 := time.Now()
		if err := mgr.Teardown(old.ID); err != nil {
			c.churnFailed++
			continue
		}
		t1 := time.Now()
		conn, err := mgr.Establish(old.Src, old.Dst, bcp.DefaultSpec(), []int{provisionDegree})
		t2 := time.Now()
		c.teardowns = append(c.teardowns, t1.Sub(t0))
		c.creates = append(c.creates, t2.Sub(t1))
		c.churnOps = append(c.churnOps, t2.Sub(t0))
		if err != nil {
			// The pair has left the load; drop it so it is not picked again.
			c.churnFailed++
			conns[j] = conns[len(conns)-1]
			conns = conns[:len(conns)-1]
			continue
		}
		conns[j] = conn
	}
	c.churn = time.Since(start)
	return mgr, c
}

func runProvision(seed int64, window time.Duration, traced bool) *report {
	rep := newReport()
	setup, p, err := setupTimes(provisionSetups, newProvision, func(*provision) {})
	if err != nil {
		rep.check(false, "provision set-up: %v", err)
		return rep
	}
	refRFast := p.refRFast
	rng := rand.New(rand.NewSource(seed))

	var cycles []provisionCycle
	var cycleWall samples
	runtime.GC()
	measure(window, func() error {
		start := time.Now()
		mgr, c := p.cycle(rng)
		cycleWall = append(cycleWall, time.Since(start))
		// Every churn pair is one attempted operation; a failed teardown
		// or re-establishment fails it.
		rep.attempted += len(p.reqs) + provisionChurn
		rep.failed += c.batchStats.Rejected + c.churnFailed
		rep.check(c.batchStats.Established == len(p.reqs), "cycle %d: established %d of %d",
			len(cycles), c.batchStats.Established, len(p.reqs))
		rep.check(c.rfast == refRFast, "cycle %d: parallel R_fast %v != serial %v", len(cycles), c.rfast, refRFast)
		if err := mgr.CheckMuxInvariants(); err != nil {
			rep.check(false, "cycle %d: mux invariants after churn: %v", len(cycles), err)
		}
		cycles = append(cycles, c)
		return nil
	})

	var batch, sweep, churn, ops, teardowns, creates samples
	established, replanned, planned := 0, 0, 0
	for _, c := range cycles {
		batch = append(batch, c.batch)
		sweep = append(sweep, c.sweep)
		churn = append(churn, c.churn)
		ops = append(ops, c.churnOps...)
		teardowns = append(teardowns, c.teardowns...)
		creates = append(creates, c.creates...)
		established += c.batchStats.Established
		replanned += c.batchStats.Replanned
		planned += c.batchStats.Planned
	}
	trials := len(cycles) * len(p.failures)
	rfast := refRFast
	if len(cycles) > 0 {
		rfast = cycles[len(cycles)-1].rfast
	}
	failedFrac := float64(rep.failed) / float64(max(rep.attempted, 1))

	rep.e2e["setup_s"] = metric{setup, "s"}
	rep.e2e["ok_frac"] = metric{1 - failedFrac, "frac"}
	rep.e2e["fast_frac"] = metric{rfast, "frac"}
	rep.e2e["cycle_ms.p50"] = metric{cycleWall.pct(50, time.Millisecond), "ms"}
	rep.e2e["service_ms.p50"] = metric{ops.pct(50, time.Millisecond), "ms"}
	rep.e2e["service_ms.p95"] = metric{ops.pct(95, time.Millisecond), "ms"}

	rep.note("setup_s", setup, "s", fmt.Sprintf("median of %d", provisionSetups))
	rep.note("failed_frac", failedFrac, "frac", fmt.Sprintf("of %d attempted", rep.attempted))
	rep.note("establish_per_s", float64(established)/batch.sum().Seconds(), "1/s",
		fmt.Sprintf("%d conns, %d planners, %d batches", established, p.workers, len(cycles)))
	rep.note("churn_per_s", float64(ops.n())/churn.sum().Seconds(), "1/s", fmt.Sprintf("%d teardown+establish pairs", ops.n()))
	rep.note("trials_per_s", float64(trials)/sweep.sum().Seconds(), "1/s", fmt.Sprintf("%d trials, %d workers", trials, p.workers))
	rep.note("rfast", rfast, "frac", fmt.Sprintf("serial reference %v", refRFast))
	rep.timing("cycle_ms", cycleWall, "ms", time.Millisecond)
	rep.timing("churn_op_ms", ops, "ms", time.Millisecond)
	rep.env["planners"] = p.workers
	rep.env["data_rate_msgs_per_s"] = 0 // provisioning only: no data traffic

	if traced {
		rep.layer("core.establish_us.p50", creates.pct(50, time.Microsecond))
		rep.layer("core.teardown_us.p50", teardowns.pct(50, time.Microsecond))
		rep.layer("core.batch_replanned_frac", float64(replanned)/float64(max(planned+replanned, 1)))
		p.traceReplay(rep, sweep)
		// The cycle is identical in both modes: its per-call timings are
		// taken either way and the replays run outside it, so
		// trace.overhead_frac stays 0 here.
	}
	return rep
}

// traceReplay measures the layers provision drives internally by replaying
// its inputs through their public APIs: the provision pairs through a fresh
// Router, and the double-node trials through one TrialView at one worker.
func (p *provision) traceReplay(rep *report, parallelSweeps samples) {
	r := bcp.NewRouter(p.g)
	var shortest, disjoint time.Duration
	const passes = 3
	for pass := 0; pass < passes; pass++ {
		for _, q := range p.reqs {
			c := bcp.RoutingConstraint{MaxHops: r.Distance(q.Src, q.Dst) + q.Spec.SlackHops}
			t0 := time.Now()
			r.ShortestPath(q.Src, q.Dst, c)
			t1 := time.Now()
			r.SequentialDisjointPaths(q.Src, q.Dst, 2, c)
			disjoint += time.Since(t1)
			shortest += t1.Sub(t0)
		}
	}
	calls := float64(passes * len(p.reqs))
	rep.layer("routing.shortest_us", float64(shortest)/float64(time.Microsecond)/calls)
	rep.layer("routing.disjoint_us", float64(disjoint)/float64(time.Microsecond)/calls)

	view := p.ref.NewTrialView()
	opts := bcp.DefaultExperimentOptions()
	var trial samples
	start := time.Now()
	for _, f := range p.failures {
		t0 := time.Now()
		view.Trial(f, opts.Order, nil)
		trial = append(trial, time.Since(t0))
	}
	serial := time.Since(start)
	rep.layer("core.trial_us.p50", trial.pct(50, time.Microsecond))
	if parallelSweeps.n() > 0 {
		rep.layer("core.sweep_speedup", serial.Seconds()/parallelSweeps.pct(50, time.Second))
	}
}
