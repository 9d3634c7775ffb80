package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/rtcl/bcp"
	"github.com/rtcl/bcp/internal/bcpd"
)

// The live-udp workload runs the protocol daemons on the wall-clock runtime
// (bcp.RealtimeRuntime: one actor goroutine per node, one execution lock,
// a monotonic timer heap) over bcp.UDPTransport, so every control frame and
// data message crosses the host loopback as a real datagram. One long-lived
// 4×4 mesh carries seeded data-carrying connections. One closed-loop cycle
// fails the link the most data-carrying primaries cross, waits for every
// affected source to switch and for data to resume at each destination,
// repairs the link, and waits until the protocol's rejoin counter shows
// every channel the failure took down has rejoined.
const (
	liveRows, liveCols = 4, 4
	liveCapacity       = 10.0 // Mbps
	liveConns          = 12
	liveRate           = 100.0 // data messages per second per connection
	liveMailbox        = 1024
	liveSetups         = 5
	// liveDeadline bounds failure → data resumed; a recovery that misses
	// it counts as failed.
	liveDeadline = 500 * time.Millisecond
	// liveRepairBy is the latest a failed link is repaired, well inside
	// the rejoin probe delay.
	liveRepairBy = 10 * time.Millisecond
	liveProbe    = 25 * time.Millisecond
	// liveRejoinWait bounds repair → rejoin; missing it ends the run.
	liveRejoinWait = 2 * time.Second
	livePoll       = time.Millisecond
)

type live struct {
	rt    *bcp.RealtimeRuntime
	tr    bcp.Transport
	net   *bcp.Protocol
	mgr   *bcp.Manager
	cfg   bcp.ProtocolConfig
	dmax  time.Duration
	conns []*bcp.DConnection
	rng   *rand.Rand

	execWait samples // the benchmark loop's Exec calls: call → run
}

// newLive boots one live network. The connections are fixed: the liveConns
// ordered pairs farthest apart (ties by node id), each with one disjoint
// backup, so their primaries share links. The seed drives the failure
// sequence and the runtime. With t non-nil the runtime, PostFunc, transport
// and sink are the traced ones.
func newLive(seed int64, t *tracer) (*live, error) {
	g := bcp.NewMesh(liveRows, liveCols, liveCapacity)
	l := &live{mgr: bcp.NewManager(g, bcp.DefaultConfig()), rng: rand.New(rand.NewSource(seed))}
	type pair struct {
		a, b bcp.NodeID
		d    int
	}
	var pairs []pair
	for a := 0; a < g.NumNodes(); a++ {
		for b := 0; b < g.NumNodes(); b++ {
			if a != b {
				pairs = append(pairs, pair{bcp.NodeID(a), bcp.NodeID(b), bcp.Distance(g, bcp.NodeID(a), bcp.NodeID(b))})
			}
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].d > pairs[j].d })
	for _, p := range pairs {
		if len(l.conns) == liveConns {
			break
		}
		c, err := l.mgr.Establish(p.a, p.b, bcp.DefaultSpec(), []int{1})
		if err != nil || len(c.Backups) == 0 {
			continue
		}
		l.conns = append(l.conns, c)
	}
	if len(l.conns) < liveConns {
		return nil, fmt.Errorf("live: established %d of %d connections", len(l.conns), liveConns)
	}

	l.cfg = bcp.DefaultProtocolConfig()
	// The §5 bound assumes immediate detection.
	l.cfg.DetectionLatency = 0
	l.cfg.RejoinProbeDelay = liveProbe
	l.dmax = perHopBound(l.cfg, liveCapacity)

	l.rt = bcp.NewRealtimeRuntime(seed)
	l.rt.StartActors(g.NumNodes(), liveMailbox)
	var rt bcp.Runtime = l.rt
	post := bcp.PostFunc(l.rt.Post)
	cfg := l.cfg
	if t != nil {
		t.live = true
		rt = &tracedRuntime{Runtime: rt, t: t}
		post = t.post(post)
		cfg.Sink = t
	}
	l.tr = bcp.NewUDPTransport(post)
	if t != nil {
		l.tr = &tracedTransport{Transport: l.tr, t: t}
	}
	l.exec(func() { l.net = bcp.NewProtocolOn(rt, l.tr, l.mgr, cfg) })
	var err error
	l.exec(func() {
		for _, c := range l.conns {
			if err = l.net.StartTraffic(c.ID, liveRate); err != nil {
				return
			}
		}
	})
	if err != nil {
		l.close()
		return nil, err
	}
	if !l.await(liveDeadline, func() bool {
		for _, c := range l.conns {
			if len(l.net.SinkArrivals(c.ID)) < 5 {
				return false
			}
		}
		return true
	}) {
		l.close()
		return nil, fmt.Errorf("live: data did not start flowing")
	}
	return l, nil
}

// close stops the transport and then the runtime; every goroutine of the
// network has exited when it returns.
func (l *live) close() {
	l.tr.Close()
	l.rt.Stop()
}

// exec runs fn serialized with the protocol, recording how long the call
// waited for the execution lock.
func (l *live) exec(fn func()) {
	called := time.Now()
	l.rt.Exec(func() {
		l.execWait = append(l.execWait, time.Since(called))
		fn()
	})
}

// await polls cond under the execution lock until it holds or limit passes.
func (l *live) await(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for {
		var ok bool
		l.exec(func() { ok = cond() })
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(livePoll)
	}
}

// pickLink picks the next failure uniformly among the links that carry at
// least two primaries (the most loaded links, if none carries two). Runs
// under the execution lock.
func (l *live) pickLink() bcp.LinkID {
	load := make(map[bcp.LinkID]int)
	top := 0
	for _, c := range l.conns {
		for _, id := range c.Primary.Path.Links() {
			load[id]++
			top = max(top, load[id])
		}
	}
	var pick []bcp.LinkID
	for id, n := range load {
		if n >= min(top, 2) {
			pick = append(pick, id)
		}
	}
	sort.Slice(pick, func(i, j int) bool { return pick[i] < pick[j] })
	return pick[l.rng.Intn(len(pick))]
}

// liveCycle is one failure cycle's outcome.
type liveCycle struct {
	gamma, resume []time.Duration
	bounds        []time.Duration
	affected      int
	missed        int // affected connections without switch + resume by the deadline
	wall          time.Duration
}

// cycle runs one failure → switch → repair → resume → rejoin cycle.
func (l *live) cycle() (liveCycle, error) {
	var out liveCycle
	start := time.Now()
	type watch struct {
		c                       *bcp.DConnection
		switches, hops, backups int
	}
	var ws []watch
	var link bcp.LinkID
	var failAt bcp.Time
	var rejoins0 uint64
	var downed int
	l.exec(func() {
		link = l.pickLink()
		for _, c := range l.conns {
			if c.Primary.Path.ContainsLink(link) {
				ws = append(ws, watch{c, len(l.net.SourceSwitches(c.ID)), c.Primary.Path.Hops(), len(c.Backups)})
			}
		}
		downed = len(l.mgr.Network().ChannelsOnLink(link))
		rejoins0 = l.net.Stats().Rejoins
		failAt = l.rt.Now()
		l.net.FailLink(link)
	})
	out.affected = len(ws)

	// Repair as soon as every affected source has switched, and no later
	// than liveRepairBy: each failed channel's single rejoin probe leaves
	// RejoinProbeDelay after the failure and must find the link up.
	l.await(liveRepairBy, func() bool {
		for _, w := range ws {
			if len(l.net.SourceSwitches(w.c.ID)) == w.switches {
				return false
			}
		}
		return true
	})
	l.exec(func() { l.net.RepairLink(link) })

	resumed := make([]bool, len(ws))
	l.await(time.Until(start.Add(liveDeadline)), func() bool {
		done := true
		for i, w := range ws {
			if resumed[i] {
				continue
			}
			sw := l.net.SourceSwitches(w.c.ID)
			if len(sw) == w.switches {
				done = false
				continue
			}
			arr := l.net.SinkArrivals(w.c.ID)
			j := sort.Search(len(arr), func(j int) bool { return arr[j] >= sw[w.switches] })
			if j == len(arr) {
				done = false
				continue
			}
			resumed[i] = true
			if arr[j].Sub(failAt) > liveDeadline {
				continue // resumed, but too late: a miss
			}
			out.gamma = append(out.gamma, sw[w.switches].Sub(failAt))
			out.resume = append(out.resume, arr[j].Sub(failAt))
			out.bounds = append(out.bounds, gammaBound(l.dmax, w.hops, w.backups)+l.cfg.DetectionLatency)
		}
		return done
	})
	out.missed = len(ws) - len(out.gamma)

	// Readiness: the next failure starts only once the rejoin counter shows
	// every channel this one took down has rejoined, and every connection
	// is whole again at every node. The counter advances at a channel's
	// destination; the source clears the channel's failed mark only when
	// the confirm has travelled back (one RCC frame interval per hop), and
	// a failure inside that window would find no usable backup.
	if !l.await(liveRejoinWait, func() bool {
		return l.net.Stats().Rejoins >= rejoins0+uint64(downed) && l.whole()
	}) {
		return out, fmt.Errorf("link %d: %d channels did not rejoin within %v", link, downed, liveRejoinWait)
	}
	out.wall = time.Since(start)
	return out, nil
}

// whole reports whether every connection's primary is in state P and each
// of its (one or more) backups in state B at every node of their paths.
// Runs under the execution lock.
func (l *live) whole() bool {
	for _, c := range l.conns {
		if c.Primary == nil || len(c.Backups) == 0 || !l.inState(c.Primary, "P") {
			return false
		}
		for _, b := range c.Backups {
			if b.ID == c.Primary.ID || !l.inState(b, "B") {
				return false
			}
		}
	}
	return true
}

// inState reports whether every daemon on ch's path holds it in state want.
func (l *live) inState(ch *bcp.Channel, want string) bool {
	for _, v := range ch.Path.Nodes() {
		if l.net.Daemon(v).State(ch.ID).String() != want {
			return false
		}
	}
	return true
}

// liveRun is the outcome of cycling a live network for a window.
type liveRun struct {
	cycles                 samples
	gamma, resume          samples
	over, affected, missed int
	err                    error
}

func (l *live) run(window time.Duration) liveRun {
	var r liveRun
	r.err = measure(window, func() error {
		c, err := l.cycle()
		r.affected += c.affected
		r.missed += c.missed
		r.gamma = append(r.gamma, c.gamma...)
		r.resume = append(r.resume, c.resume...)
		for i, g := range c.gamma {
			if g > c.bounds[i] {
				r.over++
			}
		}
		if err != nil {
			return err
		}
		r.cycles = append(r.cycles, c.wall)
		return nil
	})
	return r
}

func runLive(seed int64, window time.Duration, traced bool) *report {
	rep := newReport()
	setup, l, err := setupTimes(liveSetups, func() (*live, error) { return newLive(seed, nil) }, (*live).close)
	if err != nil {
		rep.check(false, "live set-up: %v", err)
		return rep
	}
	if traced {
		window /= 2
	}
	bare := l.run(window)
	l.close()
	rep.check(bare.err == nil, "live: %v", bare.err)
	rep.attempted, rep.failed = bare.affected, bare.missed

	failedFrac := float64(rep.failed) / float64(max(rep.attempted, 1))
	overFrac := float64(bare.over) / float64(max(bare.gamma.n(), 1))
	rep.e2e["setup_s"] = metric{setup, "s"}
	rep.e2e["ok_frac"] = metric{1 - failedFrac, "frac"}
	rep.e2e["fast_frac"] = metric{1 - overFrac, "frac"}
	rep.e2e["cycle_ms.p50"] = metric{bare.cycles.pct(50, time.Millisecond), "ms"}
	rep.e2e["service_ms.p50"] = metric{bare.gamma.pct(50, time.Millisecond), "ms"}
	rep.e2e["service_ms.p95"] = metric{bare.gamma.pct(95, time.Millisecond), "ms"}

	rep.note("setup_s", setup, "s", fmt.Sprintf("median of %d boots", liveSetups))
	rep.note("failed_frac", failedFrac, "frac", fmt.Sprintf("of %d recoveries over %d cycles, deadline %v", rep.attempted, bare.cycles.n(), liveDeadline))
	rep.note("over_bound_frac", overFrac, "frac", fmt.Sprintf("of %d recoveries", bare.gamma.n()))
	rep.timing("gamma_ms", bare.gamma, "ms", time.Millisecond)
	rep.timing("resume_ms", bare.resume, "ms", time.Millisecond)
	rep.timing("cycle_ms", bare.cycles, "ms", time.Millisecond)
	rep.env["data_rate_msgs_per_s"] = liveRate
	rep.env["connections"] = liveConns
	rep.env["transport"] = "udp loopback"

	if traced {
		traceLive(rep, seed, window, bare)
	}
	return rep
}

// traceLive boots a traced copy of the network from the same seed, cycles
// it for the same window, and reports the per-layer metrics.
func traceLive(rep *report, seed int64, window time.Duration, bare liveRun) {
	t := newTracer()
	l, err := newLive(seed, t)
	if err != nil {
		rep.check(false, "traced live set-up: %v", err)
		return
	}
	var c0 counters
	var s0 bcpd.Stats
	l.exec(func() { c0, s0 = t.c, l.net.Stats() })
	r := l.run(window)
	var c1 counters
	var s1 bcpd.Stats
	var late, wait, handler, send samples
	l.exec(func() {
		c1, s1 = t.c, l.net.Stats()
		late, wait, handler, send = t.timerLate, t.mailboxWait, t.handler, t.sendFrame
	})
	l.close()
	rep.check(r.err == nil, "traced live: %v", r.err)

	var c counters
	c.addDelta(c1, c0)
	rep.seamLayers(c, c, r.cycles.n(), send)
	cycles := float64(max(r.cycles.n(), 1))
	rep.layer("bcpd.reports_per_crash", float64(s1.ReportsGenerated-s0.ReportsGenerated)/cycles)
	rep.layer("bcpd.activations_per_crash", float64(s1.ActivationsStarted-s0.ActivationsStarted)/cycles)
	rep.layer("bcpd.activation_waste_frac",
		float64(s1.ActivationsMet-s0.ActivationsMet)/float64(max(s1.ActivationsStarted-s0.ActivationsStarted, 1)))
	rep.layer("bcpd.handler_us.p50", handler.pct(50, time.Microsecond))
	rep.layer("realtime.mailbox_wait_us.p50", wait.pct(50, time.Microsecond))
	rep.layer("realtime.mailbox_wait_us.p95", wait.pct(95, time.Microsecond))
	rep.layer("realtime.timer_late_us.p50", late.pct(50, time.Microsecond))
	rep.layer("realtime.timer_late_us.p95", late.pct(95, time.Microsecond))
	rep.layer("realtime.exec_wait_us.p50", l.execWait.pct(50, time.Microsecond))
	rep.layer("realtime.dropped", float64(l.rt.Dropped()))

	enc, dec, ok := wireReplay(t.captured)
	rep.check(ok, "wire replay: a captured frame did not round-trip")
	rep.layer("wire.encode_ns_per_frame", enc)
	rep.layer("wire.decode_ns_per_frame", dec)
	rep.layer("trace.overhead_frac", r.gamma.pct(50, time.Millisecond)/bare.gamma.pct(50, time.Millisecond)-1)
}
