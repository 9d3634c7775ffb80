package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/rtcl/bcp"
	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/trace"
)

// The storm workload is mass failure on the loaded torus, shaped like
// bcp.StormWide: four transit victims, every non-victim pair connected with
// one degree-1 backup, and data sources on connections whose primaries cross
// the victims. One closed-loop cycle crashes the most loaded victim, runs
// the report/activation storm (crash phase), repairs the victim, and runs
// the soft-state expiry and replenish wave (repair phase). Everything runs
// in simulated time on bcp.Engine with the sim transport.
const (
	stormCrashPhase  = 300 * time.Millisecond
	stormRepairPhase = 900 * time.Millisecond
	stormSources     = 16
	stormRate        = 100 // data messages per second per source
	stormSetups      = 5
)

type storm struct {
	eng     *bcp.Engine
	mgr     *bcp.Manager
	net     *bcp.Protocol
	cfg     bcp.ProtocolConfig
	dmax    time.Duration // per-hop D_max of the §5 bound
	victims []bcp.NodeID
	conns   []*bcp.DConnection
	traffic []*bcp.DConnection
	seen    map[bcp.ConnID]int

	t   *tracer                 // nil on a bare network
	chk *bcp.ConformanceChecker // traced networks only
}

// newStorm builds the loaded network: StormWide's four victims, every
// non-victim pair connected. The seed picks the data sources among the
// victim-crossing connections and seeds the engine; the load itself is the
// same for every seed. With t non-nil the network is built on the traced
// runtime, transport and sink.
func newStorm(seed int64, t *tracer) (*storm, error) {
	g := bcp.NewTorus(8, 8, 200)
	rng := rand.New(rand.NewSource(seed))
	s := &storm{victims: []bcp.NodeID{1*8 + 1, 3*8 + 3, 4*8 + 4, 6*8 + 6}, seen: make(map[bcp.ConnID]int), t: t}
	isVictim := make(map[bcp.NodeID]bool)
	for _, v := range s.victims {
		isVictim[v] = true
	}

	s.mgr = bcp.NewManager(g, bcp.DefaultConfig())
	for src := 0; src < g.NumNodes(); src++ {
		for dst := 0; dst < g.NumNodes(); dst++ {
			a, b := bcp.NodeID(src), bcp.NodeID(dst)
			if a == b || isVictim[a] || isVictim[b] {
				continue
			}
			if c, err := s.mgr.Establish(a, b, bcp.DefaultSpec(), []int{1}); err == nil {
				s.conns = append(s.conns, c)
			}
		}
	}

	// The StormWide timing: soft state through the crashed node expires
	// mid-repair-phase and replenishment restores every connection's backup
	// before the next cycle, so the population is stationary.
	cfg := bcp.DefaultProtocolConfig()
	cfg.RejoinTimeout = 500 * time.Millisecond
	cfg.RejoinProbeDelay = 100 * time.Millisecond
	cfg.ReplenishDelay = 400 * time.Millisecond
	cfg.ReplenishTarget = 1
	s.cfg = cfg
	s.dmax = perHopBound(cfg, 200)

	s.eng = bcp.NewEngine(seed)
	var rt bcp.Runtime = s.eng
	var tr bcp.Transport = bcp.NewSimTransport()
	if t != nil {
		// Storm recoveries contend for the RCC links, so the Γ rule has no
		// closed form here (DMax 0); the state machine, claim balance and
		// traversal rules all apply.
		s.chk = bcp.NewConformanceChecker(bcp.ConformanceParams{
			DetectionSlack: cfg.DetectionLatency,
			PropSlack:      cfg.PropDelay + time.Millisecond,
		})
		cfg.Sink = bcp.TraceTee{t, s.chk}
		rt = &tracedRuntime{Runtime: rt, t: t}
		tr = &tracedTransport{Transport: tr, t: t}
	}
	s.net = bcp.NewProtocolOn(rt, tr, s.mgr, cfg)

	// Sources ride on victim-crossing connections, an equal share per
	// victim, sampled by the seed.
	order := rng.Perm(len(s.conns))
	picked := make(map[bcp.ConnID]bool)
	for _, v := range s.victims {
		n := 0
		for _, i := range order {
			c := s.conns[i]
			if n == stormSources/len(s.victims) {
				break
			}
			if picked[c.ID] || c.Primary == nil || !c.Primary.Path.ContainsNode(v) {
				continue
			}
			if err := s.net.StartTraffic(c.ID, stormRate); err != nil {
				return nil, err
			}
			picked[c.ID] = true
			s.traffic = append(s.traffic, c)
			n++
		}
	}
	if len(s.traffic) != stormSources {
		return nil, fmt.Errorf("storm: only %d victim-crossing sources", len(s.traffic))
	}
	return s, nil
}

// perHopBound is D^RCC_max as the Section 5 harness computes it: the
// eligibility wait 1/R_max, the residual transmission of one data message,
// the frame's own transmission, and propagation.
func perHopBound(cfg bcp.ProtocolConfig, capacityMbps float64) time.Duration {
	bps := capacityMbps * 1e6
	eligibility := time.Duration(float64(time.Second) / cfg.RCC.RMax)
	residual := time.Duration(float64(cfg.DataMsgSize*8) / bps * float64(time.Second))
	frame := time.Duration(float64(cfg.RCC.SMax*8) / bps * float64(time.Second))
	return eligibility + residual + frame + cfg.PropDelay
}

// gammaBound is the §5 bound (K−1)·D_max + 2(b−1)(K−1)·D_max for a K-hop
// primary with b backups.
func gammaBound(dmax time.Duration, hops, backups int) time.Duration {
	k := time.Duration(hops - 1)
	b := time.Duration(backups - 1)
	return k*dmax + 2*b*k*dmax
}

// pickVictim returns the victim the most primaries cross and those
// primaries' connections.
func (s *storm) pickVictim() (bcp.NodeID, []*bcp.DConnection) {
	var best bcp.NodeID
	var bestConns []*bcp.DConnection
	for i, v := range s.victims {
		var hit []*bcp.DConnection
		for _, c := range s.conns {
			if c.Primary != nil && c.Primary.Path.ContainsNode(v) {
				hit = append(hit, c)
			}
		}
		if i == 0 || len(hit) > len(bestConns) {
			best, bestConns = v, hit
		}
	}
	return best, bestConns
}

// recovery is one sampled source switch.
type recovery struct {
	gamma, resume time.Duration
	bound         time.Duration
	// phases is the simulated-time waterfall: detect, report, activation,
	// switch. It sums to gamma; traced networks only.
	phases [4]time.Duration
}

// crashOutcome is one crash phase.
type crashOutcome struct {
	victim             bcp.NodeID
	wall               time.Duration
	affected, restored int
	recoveries         []recovery
}

// crash runs one crash phase: fail the most loaded victim and run the
// report/activation storm to completion.
func (s *storm) crash() (crashOutcome, error) {
	v, affected := s.pickVictim()
	out := crashOutcome{victim: v, affected: len(affected)}
	primaries := make(map[bcp.ConnID]*bcp.Channel, len(s.traffic))
	backups := make(map[bcp.ConnID]int, len(s.traffic))
	if s.t != nil {
		clear(s.t.watch)
		s.t.wf = s.t.wf[:0]
	}
	for _, c := range s.traffic {
		if c.Primary == nil {
			continue
		}
		primaries[c.ID] = c.Primary
		backups[c.ID] = len(c.Backups)
		if s.t != nil {
			s.t.watch[c.Primary.ID] = true
			for _, b := range c.Backups {
				s.t.watch[b.ID] = true
			}
		}
	}
	before := s.net.Stats()
	failAt := s.eng.Now()
	start := time.Now()
	s.net.FailNode(v)
	s.eng.RunFor(stormCrashPhase)
	out.wall = time.Since(start)
	if s.net.Stats().ActivationsStarted == before.ActivationsStarted {
		return out, fmt.Errorf("node %d crash started no activations", v)
	}
	for _, c := range affected {
		if c.Primary != nil && !c.Primary.Path.ContainsNode(v) {
			out.restored++
		}
	}
	for _, c := range s.traffic {
		switches := s.net.SourceSwitches(c.ID)
		p := primaries[c.ID]
		for _, at := range switches[s.seen[c.ID]:] {
			if p == nil {
				return out, fmt.Errorf("conn %d switched without a primary", c.ID)
			}
			r := recovery{
				gamma: at.Sub(failAt),
				bound: gammaBound(s.dmax, p.Path.Hops(), backups[c.ID]) + s.cfg.DetectionLatency,
			}
			arr := s.net.SinkArrivals(c.ID)
			i := sort.Search(len(arr), func(i int) bool { return arr[i] >= at })
			if i == len(arr) {
				return out, fmt.Errorf("conn %d: no data after its switch", c.ID)
			}
			r.resume = arr[i].Sub(failAt)
			if s.t != nil {
				r.phases = s.waterfall(c, p.ID, failAt, at)
			}
			out.recoveries = append(out.recoveries, r)
		}
		s.seen[c.ID] = len(switches)
	}
	return out, nil
}

// waterfall splits one recovery's Γ at three protocol events: the first
// failure report originated for the failed primary (detect), the source
// marking the primary unhealthy (report), and the source starting the
// activation it switches to (activation); the rest is the switch itself.
// Boundaries are clamped into order, so the phases always sum to Γ.
func (s *storm) waterfall(c *bcp.DConnection, primary bcp.ChannelID, failAt, switchAt bcp.Time) [4]time.Duration {
	bounds := [3]bcp.Time{switchAt, switchAt, switchAt}
	seen := [3]bool{}
	for _, ev := range s.t.wf {
		if ev.At < failAt || ev.At > switchAt {
			continue
		}
		i := -1
		switch {
		case ev.Kind == trace.KindReportOriginate && ev.Channel == primary:
			i = 0
		case ev.Kind == trace.KindState && ev.Channel == primary && ev.Node == c.Src && ev.To == trace.StateU:
			i = 1
		case ev.Kind == trace.KindActivationStart && ev.Node == c.Src && ev.Channel != primary:
			i = 2
		}
		if i >= 0 && !seen[i] {
			bounds[i], seen[i] = ev.At, true
		}
	}
	prev := failAt
	var ph [4]time.Duration
	for i, b := range bounds {
		b = min(max(b, prev), switchAt)
		ph[i] = b.Sub(prev)
		prev = b
	}
	ph[3] = switchAt.Sub(prev)
	return ph
}

// repair runs one repair phase: bring the victim back and run the
// expiry/replenish wave, asserting both happened.
func (s *storm) repair(v bcp.NodeID) (time.Duration, error) {
	mid := s.net.Stats()
	start := time.Now()
	s.net.RepairNode(v)
	s.eng.RunFor(stormRepairPhase)
	wall := time.Since(start)
	after := s.net.Stats()
	if after.RejoinExpiries == mid.RejoinExpiries {
		return wall, fmt.Errorf("node %d crash expired no soft state", v)
	}
	if after.BackupsReplenished == mid.BackupsReplenished {
		return wall, fmt.Errorf("node %d repair replenished no backups", v)
	}
	return wall, nil
}

// drain stops the traffic and runs the engine until every rejoin and
// retransmission has settled, then audits quiescence and the spare pools.
func (s *storm) drain() []string {
	for _, v := range s.victims {
		s.net.RepairNode(v)
	}
	for _, c := range s.traffic {
		s.net.StopTraffic(c.ID)
	}
	s.eng.RunFor(5 * time.Second)
	problems := s.net.CheckQuiescence()
	if err := s.mgr.CheckMuxInvariants(); err != nil {
		problems = append(problems, err.Error())
	}
	return problems
}

// stormRun is the outcome of running storm cycles for a window.
type stormRun struct {
	crashes                    []crashOutcome
	crashWall, repairs, cycles samples
	reports, activations, met  uint64     // protocol counters, crash phases only
	stats0, stats1             bcpd.Stats // protocol counters around the run
	crashSeams, cycleSeams     counters   // traced seams: crash phases, whole cycles
	err                        error
}

// run cycles the storm until the window closes or a progress check fails.
func (s *storm) run(window time.Duration) stormRun {
	var r stormRun
	var c0 counters
	if s.t != nil {
		c0 = s.t.c
	}
	r.stats0 = s.net.Stats()
	runtime.GC()
	r.err = measure(window, func() error {
		var pre counters
		if s.t != nil {
			pre = s.t.c
		}
		before := s.net.Stats()
		out, err := s.crash()
		if err != nil {
			return fmt.Errorf("cycle %d: %w", len(r.crashes), err)
		}
		after := s.net.Stats()
		r.reports += after.ReportsGenerated - before.ReportsGenerated
		r.activations += after.ActivationsStarted - before.ActivationsStarted
		r.met += after.ActivationsMet - before.ActivationsMet
		if s.t != nil {
			r.crashSeams.addDelta(s.t.c, pre)
		}
		wall, err := s.repair(out.victim)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", len(r.crashes), err)
		}
		r.crashes = append(r.crashes, out)
		r.crashWall = append(r.crashWall, out.wall)
		r.repairs = append(r.repairs, wall)
		r.cycles = append(r.cycles, out.wall+wall)
		return nil
	})
	r.stats1 = s.net.Stats()
	if s.t != nil {
		r.cycleSeams.addDelta(s.t.c, c0)
	}
	return r
}

func runStorm(seed int64, window time.Duration, traced bool) *report {
	rep := newReport()
	setup, s, err := setupTimes(stormSetups, func() (*storm, error) { return newStorm(seed, nil) }, func(*storm) {})
	if err != nil {
		rep.check(false, "storm set-up: %v", err)
		return rep
	}
	if traced {
		window /= 2
	}
	bare := s.run(window)
	s.account(rep, bare)
	for _, p := range s.drain() {
		rep.check(false, "storm drain: %s", p)
	}

	var gamma, resume samples
	over := 0
	for _, c := range bare.crashes {
		for _, r := range c.recoveries {
			gamma = append(gamma, r.gamma)
			resume = append(resume, r.resume)
			if r.gamma > r.bound {
				over++
			}
		}
	}
	overFrac := float64(over) / float64(max(gamma.n(), 1))
	failedFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.e2e["setup_s"] = metric{setup, "s"}
	rep.e2e["ok_frac"] = metric{1 - failedFrac, "frac"}
	rep.e2e["fast_frac"] = metric{1 - overFrac, "frac"}
	rep.e2e["cycle_ms.p50"] = metric{bare.cycles.pct(50, time.Millisecond), "ms"}
	rep.e2e["service_ms.p50"] = metric{bare.crashWall.pct(50, time.Millisecond), "ms"}
	rep.e2e["service_ms.p95"] = metric{bare.crashWall.pct(95, time.Millisecond), "ms"}

	rep.note("setup_s", setup, "s", fmt.Sprintf("median of %d", stormSetups))
	rep.note("failed_frac", failedFrac, "frac", fmt.Sprintf("of %d affected connections over %d crashes", rep.attempted, len(bare.crashes)))
	rep.note("over_bound_frac", overFrac, "frac", fmt.Sprintf("of %d sampled recoveries", gamma.n()))
	rep.timing("crash_wall_ms", bare.crashWall, "ms", time.Millisecond)
	rep.timing("repair_wall_ms", bare.repairs, "ms", time.Millisecond)
	rep.timing("cycle_ms", bare.cycles, "ms", time.Millisecond)
	rep.timing("gamma_ms", gamma, "ms(sim)", time.Millisecond)
	rep.timing("resume_ms", resume, "ms(sim)", time.Millisecond)
	rep.note("mux_failures", float64(bare.muxFailures()), "count", "")
	rep.note("unprotected_conns", float64(s.unprotected()), "count", "with no backup after the last cycle")
	rep.env["data_rate_msgs_per_s"] = stormRate
	rep.env["sources"] = stormSources
	rep.env["connections"] = len(s.conns)

	if traced {
		s.traceRun(rep, seed, window, bare)
	}
	return rep
}

// account adds a run's restoration outcomes and progress failure to rep.
func (s *storm) account(rep *report, r stormRun) {
	if r.err != nil {
		rep.check(false, "storm %v", r.err)
	}
	for _, c := range r.crashes {
		rep.attempted += c.affected
		rep.failed += c.affected - c.restored
	}
}

// unprotected counts the connections with no backup. Replenishment is meant
// to keep it at 0; README.md ("Dropped workload") says why it does not.
func (s *storm) unprotected() int {
	n := 0
	for _, c := range s.conns {
		if len(c.Backups) == 0 {
			n++
		}
	}
	return n
}

func (r stormRun) muxFailures() uint64 { return r.stats1.MuxFailures - r.stats0.MuxFailures }

// traceRun builds a traced copy of the network from the same seed, runs it
// for the same window, and reports the per-layer metrics.
func (s *storm) traceRun(rep *report, seed int64, window time.Duration, bare stormRun) {
	t := newTracer()
	ts, err := newStorm(seed, t)
	if err != nil {
		rep.check(false, "traced storm set-up: %v", err)
		return
	}
	tr := ts.run(window)
	if tr.err != nil {
		rep.check(false, "traced storm %v", tr.err)
	}
	for _, p := range ts.drain() {
		rep.check(false, "traced storm drain: %s", p)
	}
	for _, v := range ts.chk.Finish() {
		rep.check(false, "conformance: %s at %v: %s", v.Rule, v.At, v.Detail)
	}

	rep.seamLayers(tr.crashSeams, tr.cycleSeams, len(tr.crashes), t.sendFrame)
	crashes := float64(max(len(tr.crashes), 1))
	cs := tr.crashSeams
	rep.layer("sim.timers_per_crash", float64(cs.timers)/crashes)
	rep.layer("sim.batch_schedules_per_crash", float64(cs.batchSchedules)/crashes)
	rep.layer("sim.callbacks_per_crash", float64(cs.callbacks)/crashes)
	rep.layer("sim.callback_ms_per_crash", cs.callbackTime.Seconds()*1e3/crashes)
	rep.layer("sim.executive_ms_per_crash", (tr.crashWall.sum()-cs.callbackTime).Seconds()*1e3/crashes)

	var phases [4]samples
	for _, c := range tr.crashes {
		for _, r := range c.recoveries {
			for i, p := range r.phases {
				phases[i] = append(phases[i], p)
			}
		}
	}
	for i, name := range []string{"detect", "report", "activation", "switch"} {
		rep.layer("bcpd."+name+"_ms.p50", phases[i].pct(50, time.Millisecond))
		rep.layer("bcpd."+name+"_ms.p95", phases[i].pct(95, time.Millisecond))
	}
	rep.layer("bcpd.reports_per_crash", float64(tr.reports)/crashes)
	rep.layer("bcpd.activations_per_crash", float64(tr.activations)/crashes)
	rep.layer("bcpd.activation_waste_frac", float64(tr.met)/float64(max(tr.activations, 1)))

	enc, dec, ok := wireReplay(t.captured)
	rep.check(ok, "wire replay: a captured frame did not round-trip")
	rep.layer("wire.encode_ns_per_frame", enc)
	rep.layer("wire.decode_ns_per_frame", dec)
	rep.layer("trace.overhead_frac", tr.crashWall.pct(50, time.Millisecond)/bare.crashWall.pct(50, time.Millisecond)-1)
}
