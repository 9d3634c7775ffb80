package bcpd

import (
	"testing"
	"time"

	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// attachConformance tees a streaming conformance checker into cfg's sink and
// fails the test at cleanup on any protocol-invariant violation, so every
// test through the shared testbed is invariant-checked, not just
// end-state-checked.
func attachConformance(t *testing.T, cfg *Config, p conformance.Params) *conformance.Checker {
	t.Helper()
	c := conformance.New(p)
	if cfg.Sink == nil {
		cfg.Sink = c
	} else {
		cfg.Sink = trace.Tee{cfg.Sink, c}
	}
	t.Cleanup(func() {
		for _, v := range c.Finish() {
			t.Errorf("conformance: %v", v)
		}
	})
	return c
}

// conformanceParams derives checker tolerances from a run's protocol
// configuration: no Γ bound (testbed scenarios include congestion and
// preemption), in-flight delivery tolerated for one propagation delay plus
// a generous residual-transmission allowance.
func conformanceParams(cfg Config) conformance.Params {
	return conformance.Params{
		PropSlack: cfg.PropDelay + sim.Duration(2*time.Millisecond),
	}
}

// testbed is a 3x3 mesh with one D-connection 0->2 (primary 0-1-2, backup
// 0-3-4-5-2) plus helpers.
//
//	0 1 2
//	3 4 5
//	6 7 8
type testbed struct {
	g    *topology.Graph
	eng  *sim.Engine
	mgr  *core.Manager
	net  *Network
	conn *core.DConnection
}

func path(t *testing.T, g *topology.Graph, nodes ...topology.NodeID) topology.Path {
	t.Helper()
	p, err := topology.PathBetween(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newTestbed(t *testing.T, cfg Config) *testbed {
	t.Helper()
	g := topology.NewMesh(3, 3, 10)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 2}
	conn, err := mgr.EstablishOnPaths(spec,
		path(t, g, 0, 1, 2),
		[]topology.Path{path(t, g, 0, 3, 4, 5, 2)},
		[]int{1})
	if err != nil {
		t.Fatal(err)
	}
	attachConformance(t, &cfg, conformanceParams(cfg))
	net := New(eng, mgr, cfg)
	return &testbed{g: g, eng: eng, mgr: mgr, net: net, conn: conn}
}

func TestInstallSeedsChannelStates(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	prim := tb.conn.Primary
	back := tb.conn.Backups[0]
	for _, v := range prim.Path.Nodes() {
		if st := tb.net.Daemon(v).State(prim.ID); st != stateP {
			t.Fatalf("node %d primary state = %v", v, st)
		}
	}
	for _, v := range back.Path.Nodes() {
		if st := tb.net.Daemon(v).State(back.ID); st != stateB {
			t.Fatalf("node %d backup state = %v", v, st)
		}
	}
}

func TestDataFlowsBeforeFailure(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunFor(100 * time.Millisecond)
	st := tb.net.Stats()
	if st.DataDelivered < 90 {
		t.Fatalf("delivered %d, want ~100", st.DataDelivered)
	}
	if st.DataDropped != 0 {
		t.Fatalf("dropped %d before any failure", st.DataDropped)
	}
}

func TestLinkFailureFastRecovery(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	failAt := sim.Time(50 * time.Millisecond)
	var failed topology.LinkID
	tb.eng.At(failAt, func() {
		failed = tb.g.LinkBetween(1, 2)
		tb.net.FailLink(failed)
	})
	tb.eng.RunFor(500 * time.Millisecond)

	// The source must have switched to the backup.
	switches := tb.net.SourceSwitches(tb.conn.ID)
	if len(switches) != 1 {
		t.Fatalf("switches = %v", switches)
	}
	if switches[0] < failAt {
		t.Fatal("switched before the failure")
	}
	// Recovery is fast: detection + reporting over 2 hops of RCC.
	if delay := switches[0].Sub(failAt); delay > 50*time.Millisecond {
		t.Fatalf("recovery delay %v too large", delay)
	}
	// The backup is promoted in the resource plane.
	if tb.conn.Primary == nil || tb.conn.Primary.Path.Hops() != 4 {
		t.Fatal("backup not promoted")
	}
	if len(tb.conn.Backups) != 0 {
		t.Fatal("backup list not consumed")
	}
	// Data resumed at the destination; loss is bounded by the outage.
	if _, ok := tb.net.FirstArrivalAfter(tb.conn.ID, switches[0]); !ok {
		t.Fatal("no data after recovery")
	}
	st := tb.net.Stats()
	if st.DataDropped == 0 {
		t.Fatal("expected some loss during the outage (Figure 8)")
	}
	if st.DataDelivered < 300 {
		t.Fatalf("delivered %d, service did not resume properly", st.DataDelivered)
	}
	// Spare pools on the promoted path converted to dedicated bandwidth.
	for _, l := range tb.conn.Primary.Path.Links() {
		if tb.mgr.Network().Dedicated(l) != 1 {
			t.Fatalf("link %d dedicated = %g", l, tb.mgr.Network().Dedicated(l))
		}
	}
	if err := tb.mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeFailureFastRecovery(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailNode(1) })
	tb.eng.RunFor(500 * time.Millisecond)
	if got := len(tb.net.SourceSwitches(tb.conn.ID)); got != 1 {
		t.Fatalf("switches = %d", got)
	}
	if tb.conn.Primary == nil || tb.conn.Primary.Path.ContainsNode(1) {
		t.Fatal("recovered primary still uses the failed node")
	}
}

func TestFailureOfBackupOnlyIsBookkept(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.net.FailLink(tb.g.LinkBetween(3, 4)) // backup link
	tb.eng.RunFor(200 * time.Millisecond)
	// No switch: the primary is healthy.
	if tb.conn.Primary.Path.Hops() != 2 {
		t.Fatal("primary changed")
	}
	// End nodes know the backup failed.
	back := tb.conn.Backups[0]
	if !tb.net.Daemon(0).knownFailedBackups[back.ID] {
		t.Fatal("source does not know the backup failed")
	}
	if st := tb.net.Daemon(2).State(back.ID); st != stateU {
		t.Fatalf("destination backup state = %v", st)
	}
}

func TestDoubleFailureUnrecoverable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(200 * time.Millisecond)
	tb := newTestbed(t, cfg)
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.At(sim.Time(50*time.Millisecond), func() {
		tb.net.FailLink(tb.g.LinkBetween(1, 2))
		tb.net.FailLink(tb.g.LinkBetween(4, 5))
	})
	tb.eng.RunFor(2 * time.Second)
	// The source may transiently switch to the backup before its failure
	// report arrives (the paper's "albeit unlikely" race, §4.2), but no
	// data flows afterwards and nothing recovers.
	if n := len(tb.net.SourceSwitches(tb.conn.ID)); n > 1 {
		t.Fatalf("switched %d times despite both channels dead", n)
	}
	// Rejoin timers expired: all resources reclaimed.
	if tb.mgr.Connection(tb.conn.ID) != nil {
		t.Fatal("dead connection still registered")
	}
	for _, l := range tb.g.Links() {
		if tb.mgr.Network().Dedicated(l.ID) != 0 || tb.mgr.Network().Spare(l.ID) != 0 {
			t.Fatalf("link %d not reclaimed", l.ID)
		}
	}
}

func TestSequentialFailuresWithTwoBackups(t *testing.T) {
	g := topology.NewMesh(3, 4, 10)
	//  0 1  2  3
	//  4 5  6  7
	//  8 9 10 11
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 4}
	conn, err := mgr.EstablishOnPaths(spec,
		path(t, g, 1, 2),
		[]topology.Path{
			path(t, g, 1, 5, 6, 2),
			path(t, g, 1, 0, 4, 8, 9, 10, 6, 2),
		},
		[]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	attachConformance(t, &cfg, conformanceParams(cfg))
	net := New(eng, mgr, cfg)
	if err := net.StartTraffic(conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.At(sim.Time(300*time.Millisecond), func() { net.FailLink(g.LinkBetween(5, 6)) })
	eng.RunFor(2 * time.Second)
	switches := net.SourceSwitches(conn.ID)
	if len(switches) != 2 {
		t.Fatalf("switches = %v, want 2 (backup1 then backup2)", switches)
	}
	if conn.Primary == nil || conn.Primary.Path.Hops() != 7 {
		t.Fatalf("final primary = %v", conn.Primary)
	}
	if _, ok := net.FirstArrivalAfter(conn.ID, switches[1]); !ok {
		t.Fatal("no data after the second recovery")
	}
}

func TestReplenishRestoresFaultTolerance(t *testing.T) {
	// §4.4: after recovery the connection re-establishes a fresh backup, so
	// a SECOND failure later is also survived fast.
	g := topology.NewTorus(4, 4, 200)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	conn, err := mgr.Establish(0, 5, rtchan.DefaultSpec(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.ReplenishDelay = sim.Duration(100 * time.Millisecond)
	cfg.ReplenishTarget = 1
	attachConformance(t, &cfg, conformanceParams(cfg))
	net := New(eng, mgr, cfg)
	if err := net.StartTraffic(conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	eng.At(sim.Time(50*time.Millisecond), func() {
		net.FailLink(conn.Primary.Path.Links()[0])
	})
	// After recovery + replenishment, fail the new primary too.
	eng.At(sim.Time(500*time.Millisecond), func() {
		if conn.Primary != nil {
			net.FailLink(conn.Primary.Path.Links()[0])
		}
	})
	eng.RunFor(2 * time.Second)

	if net.Stats().BackupsReplenished == 0 {
		t.Fatal("no backup was replenished")
	}
	switches := net.SourceSwitches(conn.ID)
	if len(switches) != 2 {
		t.Fatalf("switches = %v, want 2 (second failure survived via replenished backup)", switches)
	}
	if conn.Primary == nil {
		t.Fatal("connection lost")
	}
	if _, ok := net.FirstArrivalAfter(conn.ID, switches[1]); !ok {
		t.Fatal("no data after the second recovery")
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestClosureAtSourceReplenishes(t *testing.T) {
	// A backup's last link fails for good. The node before it detects the
	// failure at once, but the reverse of the backup's first link is down
	// for a while, so its failure report reaches the source only when that
	// link heals (the RCC holds the frame): the path node's rejoin timer
	// expires first, it tears the backup down, and its closure reaches the
	// source while the source still waits in U. The closure ends the
	// source's timer, so the source must replenish there — its own expiry,
	// which would have, never comes.
	g := topology.NewTorus(4, 4, 200)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	conn, err := mgr.Establish(0, 5, rtchan.DefaultSpec(), []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(conn.Backups) != 1 || conn.Backups[0].Path.Hops() < 2 {
		t.Fatalf("want one backup of at least 2 hops, got %v", conn.Backups)
	}
	lost := conn.Backups[0]
	nodes := lost.Path.Nodes()
	cut := lost.Path.Links()[lost.Path.Hops()-1]
	slow := g.LinkBetween(nodes[1], nodes[0])
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(300 * time.Millisecond)
	cfg.ReplenishDelay = sim.Duration(100 * time.Millisecond)
	cfg.ReplenishTarget = 1
	rec := &trace.Recorder{}
	cfg.Sink = rec
	attachConformance(t, &cfg, conformanceParams(cfg))
	net := New(eng, mgr, cfg)
	eng.At(sim.Time(50*time.Millisecond), func() {
		net.FailLink(slow)
		net.FailLink(cut)
	})
	eng.At(sim.Time(250*time.Millisecond), func() { net.RepairLink(slow) })
	eng.RunFor(2 * time.Second)

	// The scenario: a path node's timer expired, the source's never did.
	var expired []topology.NodeID
	for _, ev := range rec.Events {
		if ev.Kind == trace.KindRejoinExpire && ev.Channel == lost.ID {
			expired = append(expired, ev.Node)
		}
	}
	if len(expired) == 0 || expired[0] == lost.Path.Source() {
		t.Fatalf("rejoin expiries of the lost backup at nodes %v, want a path node first", expired)
	}
	for _, v := range expired {
		if v == lost.Path.Source() {
			t.Fatalf("the source's own timer expired (nodes %v): the closure did not reach it first", expired)
		}
	}
	if mgr.Network().Channel(lost.ID) != nil {
		t.Fatal("lost backup still registered")
	}
	// The connection is back at its backup target, on a route that avoids
	// the dead link.
	if len(conn.Backups) != cfg.ReplenishTarget {
		t.Fatalf("backups = %d after the closure, want %d", len(conn.Backups), cfg.ReplenishTarget)
	}
	for _, b := range conn.Backups {
		if b.Path.ContainsLink(cut) {
			t.Fatalf("replenished backup %v crosses the dead link %d", b.Path, cut)
		}
		for _, v := range b.Path.Nodes() {
			if st := net.Daemon(v).State(b.ID); st != stateB {
				t.Fatalf("node %d state %v on the replenished backup, want B", v, st)
			}
		}
	}
	if got := net.Stats().BackupsReplenished; got != 1 {
		t.Fatalf("backups replenished = %d, want 1", got)
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReplenishDisabledByDefault(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	tb.eng.At(sim.Time(50*time.Millisecond), func() {
		tb.net.FailLink(tb.g.LinkBetween(1, 2))
	})
	tb.eng.RunFor(time.Second)
	if tb.net.Stats().BackupsReplenished != 0 {
		t.Fatal("replenishment ran despite being disabled")
	}
	if len(tb.conn.Backups) != 0 {
		t.Fatal("backup list should stay consumed")
	}
}

func TestDivergentBackupSelectionConverges(t *testing.T) {
	// Paper footnote 7: the two end nodes can transiently pick different
	// backups when their knowledge differs. Here the primary and the first
	// backup's destination-adjacent link fail together: the destination
	// learns of backup 1's death immediately (it is adjacent) and activates
	// backup 2, while the source — not yet knowing — activates backup 1.
	// Backup 1's activation dies at the failed link; backup 2's backward
	// activation reaches the source, which switches to it. The system
	// converges on backup 2 with no double promotion.
	g := topology.NewMesh(3, 4, 10)
	//  0 1  2  3
	//  4 5  6  7
	//  8 9 10 11
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 4}
	conn, err := mgr.EstablishOnPaths(spec,
		path(t, g, 1, 2),
		[]topology.Path{
			path(t, g, 1, 5, 6, 2),
			path(t, g, 1, 0, 4, 8, 9, 10, 11, 7, 3, 2),
		},
		[]int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	attachConformance(t, &cfg, conformanceParams(cfg))
	net := New(eng, mgr, cfg)
	if err := net.StartTraffic(conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	eng.At(sim.Time(50*time.Millisecond), func() {
		net.FailLink(g.LinkBetween(1, 2)) // primary
		net.FailLink(g.LinkBetween(6, 2)) // backup 1's last link
	})
	eng.RunFor(2 * time.Second)

	if conn.Primary == nil || conn.Primary.Path.Hops() != 9 {
		t.Fatalf("converged primary = %v, want backup 2", conn.Primary)
	}
	// The source may have switched twice (transiently to backup 1).
	switches := net.SourceSwitches(conn.ID)
	if len(switches) == 0 || len(switches) > 2 {
		t.Fatalf("switches = %v", switches)
	}
	// Data flows after convergence.
	if _, ok := net.FirstArrivalAfter(conn.ID, switches[len(switches)-1]); !ok {
		t.Fatal("no data after convergence")
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Network().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScheme1RecoversViaDestination(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = Scheme1
	tb := newTestbed(t, cfg)
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(tb.g.LinkBetween(0, 1)) })
	tb.eng.RunFor(time.Second)
	if len(tb.net.SourceSwitches(tb.conn.ID)) != 1 {
		t.Fatal("scheme 1 did not recover")
	}
	if tb.conn.Primary == nil || tb.conn.Primary.Path.Hops() != 4 {
		t.Fatal("backup not promoted under scheme 1")
	}
}

func TestScheme3FasterThanScheme1NearDestination(t *testing.T) {
	// A failure near the destination: scheme 1's report has a short trip to
	// the destination, but the activation must then travel the whole backup
	// back to the source before data resumes. Scheme 3's upstream report
	// reaches the source directly and data resumes immediately.
	recoveryDelay := func(scheme Scheme) sim.Duration {
		cfg := DefaultConfig()
		cfg.Scheme = scheme
		tb := newTestbed(t, cfg)
		if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
			t.Fatal(err)
		}
		failAt := sim.Time(50 * time.Millisecond)
		tb.eng.At(failAt, func() { tb.net.FailLink(tb.g.LinkBetween(1, 2)) })
		tb.eng.RunFor(time.Second)
		sw := tb.net.SourceSwitches(tb.conn.ID)
		if len(sw) != 1 {
			t.Fatalf("scheme %d: switches = %v", scheme, sw)
		}
		return sw[0].Sub(failAt)
	}
	d1 := recoveryDelay(Scheme1)
	d3 := recoveryDelay(Scheme3)
	if d3 >= d1 {
		t.Fatalf("scheme 3 (%v) not faster than scheme 1 (%v)", d3, d1)
	}
}

func TestMuxFailureTriggersNextBackup(t *testing.T) {
	// Two connections whose primaries share link 1->2 with backups
	// multiplexed on 5->6 (shared spare = 1). On failure, the loser's
	// activation hits a multiplexing failure and falls back to its second
	// backup.
	g := topology.NewMesh(4, 4, 10)
	//  0  1  2  3
	//  4  5  6  7
	//  8  9 10 11
	// 12 13 14 15
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())
	spec := rtchan.TrafficSpec{Bandwidth: 1, SlackHops: 4}
	connA, err := mgr.EstablishOnPaths(spec,
		path(t, g, 1, 2, 3),
		[]topology.Path{path(t, g, 1, 5, 6, 7, 3)}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	connB, err := mgr.EstablishOnPaths(spec,
		path(t, g, 1, 2, 6),
		[]topology.Path{
			path(t, g, 1, 5, 6),
			path(t, g, 1, 0, 4, 8, 9, 10, 6),
		}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := mgr.Network().Spare(g.LinkBetween(5, 6)); got != 1 {
		t.Fatalf("spare on 5->6 = %g, want 1 (multiplexed)", got)
	}
	cfg := DefaultConfig()
	attachConformance(t, &cfg, conformanceParams(cfg))
	net := New(eng, mgr, cfg)
	if err := net.StartTraffic(connA.ID, 500); err != nil {
		t.Fatal(err)
	}
	if err := net.StartTraffic(connB.ID, 500); err != nil {
		t.Fatal(err)
	}
	eng.At(sim.Time(50*time.Millisecond), func() { net.FailLink(g.LinkBetween(1, 2)) })
	eng.RunFor(2 * time.Second)

	if net.Stats().MuxFailures == 0 {
		t.Fatal("no multiplexing failure despite contention")
	}
	// Both connections end up recovered: A on its only backup, B on one of
	// its two (whichever won the race decides the loser's fallback).
	if connA.Primary == nil {
		t.Fatal("connection A lost")
	}
	if connB.Primary == nil {
		t.Fatal("connection B lost")
	}
	if len(net.SourceSwitches(connA.ID)) == 0 || len(net.SourceSwitches(connB.ID)) == 0 {
		t.Fatal("sources did not switch")
	}
	if err := mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejoinRepairsChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(2 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(300 * time.Millisecond)
	tb := newTestbed(t, cfg)
	l := tb.g.LinkBetween(1, 2)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(l) })
	// Repair before the probe goes out.
	tb.eng.At(sim.Time(200*time.Millisecond), func() { tb.net.RepairLink(l) })
	tb.eng.RunFor(3 * time.Second)

	if tb.net.Stats().Rejoins == 0 {
		t.Fatal("no rejoin happened")
	}
	// The old primary was repaired and rejoined as a backup; the original
	// backup was promoted to primary.
	conn := tb.mgr.Connection(tb.conn.ID)
	if conn == nil {
		t.Fatal("connection gone")
	}
	if conn.Primary == nil || conn.Primary.Path.Hops() != 4 {
		t.Fatal("promoted backup is not the primary")
	}
	if len(conn.Backups) != 1 || conn.Backups[0].Path.Hops() != 2 {
		t.Fatalf("repaired channel not registered as backup: %+v", conn.Backups)
	}
	// All nodes of the repaired channel hold state B.
	for _, v := range conn.Backups[0].Path.Nodes() {
		if st := tb.net.Daemon(v).State(conn.Backups[0].ID); st != stateB {
			t.Fatalf("node %d state = %v, want B", v, st)
		}
	}
	if err := tb.mgr.CheckMuxInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejoinTimerExpiryTearsDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(300 * time.Millisecond)
	tb := newTestbed(t, cfg)
	old := tb.conn.Primary.ID
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(tb.g.LinkBetween(1, 2)) })
	tb.eng.RunFor(2 * time.Second)
	if tb.mgr.Network().Channel(old) != nil {
		t.Fatal("failed primary not torn down after rejoin expiry")
	}
	if tb.net.Stats().RejoinExpiries == 0 {
		t.Fatal("no expiry recorded")
	}
	// Connection survives on the promoted backup.
	conn := tb.mgr.Connection(tb.conn.ID)
	if conn == nil || conn.Primary == nil {
		t.Fatal("connection should survive on its promoted backup")
	}
}

func TestClosureUndoesPartialRejoin(t *testing.T) {
	// Figure 6: a rejoin message arriving at a node whose timer already
	// expired triggers a channel-closure toward the destination.
	tb := newTestbed(t, DefaultConfig())
	prim := tb.conn.Primary
	d1 := tb.net.Daemon(1)
	// Simulate: node 1 in state N (expired), delivering a rejoin.
	d1.setState(prim.ID, stateN)
	d1.handleControl(wireControl{
		Type: 4 /* MsgRejoin */, Channel: int64(prim.ID), Origin: 2, Toward: -1,
	})
	tb.eng.RunFor(time.Second)
	if tb.net.Stats().Closures == 0 {
		t.Fatal("no closure generated")
	}
	// The closure propagated toward the destination: node 2's state is N.
	if st := tb.net.Daemon(2).State(prim.ID); st != stateN {
		t.Fatalf("destination state = %v, want N", st)
	}
}

func TestTeardownConnectionPropagatesClosure(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	if err := tb.net.StartTraffic(tb.conn.ID, 1000); err != nil {
		t.Fatal(err)
	}
	prim := tb.conn.Primary
	back := tb.conn.Backups[0]
	tb.eng.RunFor(50 * time.Millisecond)
	if err := tb.net.TeardownConnection(tb.conn.ID); err != nil {
		t.Fatal(err)
	}
	tb.eng.RunFor(200 * time.Millisecond)
	// Resource plane is clean.
	if tb.mgr.Connection(tb.conn.ID) != nil {
		t.Fatal("connection still registered")
	}
	for _, l := range tb.g.Links() {
		if tb.mgr.Network().Dedicated(l.ID) != 0 || tb.mgr.Network().Spare(l.ID) != 0 {
			t.Fatalf("link %d not released", l.ID)
		}
	}
	// Closure reached every node of both channels: all state N.
	for _, ch := range []*rtchan.Channel{prim, back} {
		for _, v := range ch.Path.Nodes() {
			if st := tb.net.Daemon(v).State(ch.ID); st != stateN {
				t.Fatalf("node %d channel %d state %v after closure", v, ch.ID, st)
			}
		}
	}
	// The data source stopped.
	sent := tb.net.Stats().DataSent
	tb.eng.RunFor(100 * time.Millisecond)
	if tb.net.Stats().DataSent != sent {
		t.Fatal("source kept emitting after teardown")
	}
	if err := tb.net.TeardownConnection(tb.conn.ID); err == nil {
		t.Fatal("double teardown accepted")
	}
}

func TestReportsAreDedupedInStateU(t *testing.T) {
	tb := newTestbed(t, DefaultConfig())
	prim := tb.conn.Primary
	d1 := tb.net.Daemon(1)
	before := tb.net.Stats().ReportsGenerated
	d1.originateFailureReport(prim.ID, -1)
	d1.originateFailureReport(prim.ID, -1)
	d1.originateFailureReport(prim.ID, -1)
	tb.eng.RunFor(100 * time.Millisecond)
	if got := tb.net.Stats().ReportsGenerated - before; got != 3 {
		t.Fatalf("reports generated = %d", got)
	}
	if st := d1.State(prim.ID); st != stateU {
		t.Fatalf("state = %v", st)
	}
	// Only one switch at the source despite three reports.
	if tb.conn.Primary == nil || tb.conn.Primary.Path.Hops() != 4 {
		t.Fatal("no single recovery")
	}
}

func TestRejoinRequestHeldAcrossRepair(t *testing.T) {
	// The probe goes out while the link is still down; the RCC holds it
	// (hop-by-hop retransmission) and delivers it when the link heals —
	// the paper's "the failed component... will also forward the
	// rejoin-request message" semantics.
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(2 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(100 * time.Millisecond) // before repair
	tb := newTestbed(t, cfg)
	l := tb.g.LinkBetween(1, 2)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(l) })
	tb.eng.At(sim.Time(500*time.Millisecond), func() { tb.net.RepairLink(l) })
	tb.eng.RunFor(3 * time.Second)
	if tb.net.Stats().Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1 (request held until repair)", tb.net.Stats().Rejoins)
	}
	if tb.net.Stats().RejoinExpiries != 0 {
		t.Fatalf("expiries = %d, the repaired channel should not expire", tb.net.Stats().RejoinExpiries)
	}
	conn := tb.mgr.Connection(tb.conn.ID)
	if conn == nil || len(conn.Backups) != 1 || conn.Backups[0].Path.Hops() != 2 {
		t.Fatal("repaired primary did not rejoin as a backup")
	}
}

func TestRepairAfterExpiryIsClean(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RejoinTimeout = sim.Duration(100 * time.Millisecond)
	cfg.RejoinProbeDelay = sim.Duration(400 * time.Millisecond) // probe after expiry
	tb := newTestbed(t, cfg)
	l := tb.g.LinkBetween(1, 2)
	tb.eng.At(sim.Time(50*time.Millisecond), func() { tb.net.FailLink(l) })
	tb.eng.At(sim.Time(300*time.Millisecond), func() { tb.net.RepairLink(l) })
	tb.eng.RunFor(2 * time.Second)
	// The probe found the channel already expired locally: no rejoin.
	if tb.net.Stats().Rejoins != 0 {
		t.Fatal("rejoin happened after expiry")
	}
	if tb.mgr.Network().Channel(tb.conn.Primary.ID) == nil {
		t.Fatal("promoted backup should exist")
	}
}
