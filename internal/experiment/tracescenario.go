package experiment

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// TraceScenario parameterizes the deterministic single-connection
// failure-recovery run shared by cmd/bcptrace, the golden-trace regression
// test, and the wire fuzz-corpus seeding: an 8-hop connection across the
// paper's torus, one primary link crash mid-run, optional backup hit and
// repair.
type TraceScenario struct {
	Scheme   bcpd.Scheme
	FailPos  int // primary link index to crash
	Backups  int
	HitFirst bool         // also crash the first backup's last link
	Repair   sim.Duration // repair the failed primary link after this delay (0 = never)
	Rate     float64      // data message rate (msgs/s)
	RunFor   sim.Duration

	// Sink, when non-nil, receives the event stream in addition to the
	// run's own recorder (e.g. a live renderer).
	Sink trace.Sink
	// FrameTap, when non-nil, observes every marshaled RCC frame.
	FrameTap func(link topology.LinkID, frame []byte)
}

// DefaultTraceScenario mirrors bcptrace's defaults: Scheme 3, third primary
// link crashed, one backup, 500 msgs/s, 3 simulated seconds.
func DefaultTraceScenario() TraceScenario {
	return TraceScenario{
		Scheme:  bcpd.Scheme3,
		FailPos: 2,
		Backups: 1,
		Rate:    500,
		RunFor:  sim.Duration(3 * time.Second),
	}
}

// TraceRun is the outcome of one scenario: the recorded event stream plus
// the handles a renderer or checker needs.
type TraceRun struct {
	Conn        *core.DConnection
	Net         *bcpd.Network
	Events      []trace.Event
	FailAt      sim.Time
	FailedLinks []topology.LinkID
	// DMax is the per-hop control-delay bound of this run's configuration,
	// for Γ-bound checking over the recorded stream.
	DMax sim.Duration
}

// RunTraceScenario executes the scenario to completion. The run is fully
// deterministic: same scenario, same stream.
func RunTraceScenario(s TraceScenario) (TraceRun, error) {
	g := topology.NewTorus(8, 8, 200)
	eng := sim.New(1)
	mgr := core.NewManager(g, core.DefaultConfig())

	src, dst := topology.NodeID(0), topology.NodeID(36)
	paths := mgr.Router().SequentialDisjointPaths(src, dst, s.Backups+1, routing.Constraint{})
	if len(paths) < s.Backups+1 {
		return TraceRun{}, fmt.Errorf("experiment: only %d disjoint paths for %d channels", len(paths), s.Backups+1)
	}
	degrees := make([]int, s.Backups)
	for i := range degrees {
		degrees[i] = 1
	}
	conn, err := mgr.EstablishOnPaths(rtchan.DefaultSpec(), paths[0], paths[1:s.Backups+1], degrees)
	if err != nil {
		return TraceRun{}, err
	}

	rec := &trace.Recorder{}
	var sink trace.Sink = rec
	if s.Sink != nil {
		sink = trace.Tee{rec, s.Sink}
	}
	cfg := bcpd.DefaultConfig()
	cfg.Scheme = s.Scheme
	cfg.RejoinTimeout = sim.Duration(2 * time.Second)
	cfg.RejoinProbeDelay = sim.Duration(100 * time.Millisecond)
	cfg.Sink = sink
	cfg.FrameTap = s.FrameTap
	net := bcpd.New(eng, mgr, cfg)
	if err := net.StartTraffic(conn.ID, s.Rate); err != nil {
		return TraceRun{}, err
	}

	if s.FailPos < 0 || s.FailPos >= len(conn.Primary.Path.Links()) {
		return TraceRun{}, fmt.Errorf("experiment: fail index %d out of range", s.FailPos)
	}
	run := TraceRun{
		Conn:   conn,
		Net:    net,
		FailAt: sim.Time(50 * time.Millisecond),
		DMax:   cfg.PerHopBound(200),
	}
	failLink := conn.Primary.Path.Links()[s.FailPos]
	run.FailedLinks = append(run.FailedLinks, failLink)
	if s.HitFirst && len(conn.Backups) > 0 {
		bl := conn.Backups[0].Path.Links()
		run.FailedLinks = append(run.FailedLinks, bl[len(bl)-1])
	}
	eng.At(run.FailAt, func() {
		for _, l := range run.FailedLinks {
			net.FailLink(l)
		}
	})
	if s.Repair > 0 {
		eng.At(run.FailAt.Add(s.Repair), func() {
			net.RepairLink(failLink)
		})
	}
	eng.RunFor(s.RunFor)
	run.Events = rec.Events
	return run, nil
}
