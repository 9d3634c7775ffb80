package experiment

import (
	"fmt"
	"time"

	"github.com/rtcl/bcp/internal/bcpd"
	"github.com/rtcl/bcp/internal/conformance"
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/metrics"
	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// Section5Row is one failure-position measurement of the recovery-delay
// experiment.
type Section5Row struct {
	FailPos      int          // index of the failed primary link (0 = at the source)
	Backups      int          // number of backups configured
	BackupHit    bool         // whether the first backup was failed too (retrial case)
	Gamma        sim.Duration // measured source recovery delay
	Bound        sim.Duration // the paper's Γ bound for this configuration
	DstDisrupt   sim.Duration // largest data-arrival gap at the destination
	MessagesLost uint64       // data messages lost during the outage (Figure 8)

	// Violations are protocol-conformance violations observed on the
	// trial's event stream (empty on a sound run). The checker enforces the
	// same Γ bound the Bound column reports, plus the Figure-4 state
	// machine, claim balance, and healthy-traversal rules.
	Violations []conformance.Violation
}

// Section5Result is the §5.3 recovery-delay bound validation.
type Section5Result struct {
	Hops     int
	DMax     sim.Duration
	Rows     []Section5Row
	AllBound bool
}

// protocolTimingConfig builds the bcpd configuration used for the timing
// experiments: zero detection latency (the paper's bound assumes immediate
// detection) and lossless links, so Γ isolates control-message delays.
func protocolTimingConfig() bcpd.Config {
	cfg := bcpd.DefaultConfig()
	cfg.DetectionLatency = 0
	return cfg
}

// RunSection5 validates the §5.3 recovery-delay bound on the paper's torus:
// a K-hop D-connection with 1 or 2 backups carries traffic, one primary link
// at each position fails, and the measured source recovery delay Γ is
// compared to (K-1)·D_max + 2(b-1)(K-1)·D_max. For the double-backup rows
// the first backup's first link fails simultaneously, exercising the
// activation-retrial term.
func RunSection5(opts Options) Section5Result {
	const hops = 8
	cfg := protocolTimingConfig()
	res := Section5Result{
		Hops:     hops,
		DMax:     cfg.PerHopBound(200),
		AllBound: true,
	}
	// Single backup: sweep every failure position.
	for pos := 0; pos < hops; pos++ {
		row := runSection5Trial(opts, cfg, res.DMax, 1, pos, false)
		res.Rows = append(res.Rows, row)
		if row.Gamma > row.Bound {
			res.AllBound = false
		}
	}
	// Double backups with the first backup also failed: retrial delay.
	for _, pos := range []int{0, hops / 2, hops - 1} {
		row := runSection5Trial(opts, cfg, res.DMax, 2, pos, true)
		res.Rows = append(res.Rows, row)
		if row.Gamma > row.Bound {
			res.AllBound = false
		}
	}
	return res
}

// runSection5Trial builds a fresh torus with one instrumented connection and
// measures one failure scenario.
func runSection5Trial(opts Options, cfg bcpd.Config, dmax sim.Duration, backups, failPos int, hitBackup bool) Section5Row {
	g := NewGraph(Torus8x8)
	eng := sim.New(opts.Seed + int64(failPos))
	mgr := core.NewManager(g, opts.config())
	// An 8-hop connection across the torus: (0,0) -> (4,4).
	src, dst := topology.NodeID(0), topology.NodeID(36)
	paths := routing.SequentialDisjointPaths(g, src, dst, backups+1, routing.Constraint{})
	if len(paths) < backups+1 {
		panic("experiment: torus cannot route the requested channels")
	}
	degrees := make([]int, backups)
	for i := range degrees {
		degrees[i] = 1
	}
	conn, err := mgr.EstablishOnPaths(rtchan.DefaultSpec(), paths[0], paths[1:backups+1], degrees)
	if err != nil {
		panic("experiment: " + err.Error())
	}
	// Every trial is conformance-checked live: with dmax > 0 the checker
	// re-derives the Γ bound the table reports and flags any recovery that
	// exceeds it, independently of the SourceSwitches accounting below.
	chk := conformance.New(conformance.Params{
		DMax:           dmax,
		DetectionSlack: cfg.DetectionLatency,
		PropSlack:      cfg.PropDelay + sim.Duration(time.Millisecond),
	})
	if cfg.Sink != nil {
		cfg.Sink = trace.Tee{cfg.Sink, chk}
	} else {
		cfg.Sink = chk
	}
	net := bcpd.New(eng, mgr, cfg)
	const msgRate = 1000.0
	if err := net.StartTraffic(conn.ID, msgRate); err != nil {
		panic("experiment: " + err.Error())
	}

	failAt := sim.Time(100 * time.Millisecond)
	primLink := conn.Primary.Path.Links()[failPos]
	var backupLink topology.LinkID = topology.NoLink
	if hitBackup {
		// Fail the first backup's last link: the source cannot know and
		// activates it first, paying the full retrial round trip — the
		// 2(b-1)(K-1)·D_max term of the bound.
		bLinks := conn.Backups[0].Path.Links()
		backupLink = bLinks[len(bLinks)-1]
	}
	eng.At(failAt, func() {
		net.FailLink(primLink)
		if backupLink != topology.NoLink {
			net.FailLink(backupLink)
		}
	})
	eng.RunFor(2 * time.Second)

	row := Section5Row{
		FailPos:   failPos,
		Backups:   backups,
		BackupHit: hitBackup,
		Bound:     boundGamma(dmax, paths[0].Hops(), backups),
	}
	switches := net.SourceSwitches(conn.ID)
	if n := len(switches); n > 0 {
		row.Gamma = switches[n-1].Sub(failAt)
	}
	row.DstDisrupt = net.MaxArrivalGap(conn.ID)
	row.MessagesLost = net.Stats().DataSent - net.Stats().DataDelivered
	row.Violations = chk.Finish()
	return row
}

// boundGamma is the paper's Γ bound: failure-reporting delay plus activation
// retrial delay, (K-1)·D_max + 2(b-1)(K-1)·D_max.
func boundGamma(dmax sim.Duration, hops, backups int) sim.Duration {
	k := sim.Duration(hops - 1)
	b := sim.Duration(backups - 1)
	return k*dmax + 2*b*k*dmax
}

// Render prints the Section 5 table.
func (r Section5Result) Render() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Section 5: recovery-delay bound validation (K=%d hops, D_max=%v per hop, all within bound: %v)",
			r.Hops, time.Duration(r.DMax), r.AllBound),
		Columns: []string{"fail-pos", "backups", "backup-hit", "gamma", "bound", "dst-disruption", "msgs-lost"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("link %d", row.FailPos),
			fmt.Sprintf("%d", row.Backups),
			fmt.Sprintf("%v", row.BackupHit),
			fmt.Sprintf("%v", time.Duration(row.Gamma)),
			fmt.Sprintf("%v", time.Duration(row.Bound)),
			fmt.Sprintf("%v", time.Duration(row.DstDisrupt)),
			fmt.Sprintf("%d", row.MessagesLost),
		)
	}
	return t.String()
}

// SchemeRow is one scheme/failure-position measurement.
type SchemeRow struct {
	Scheme     bcpd.Scheme
	FailPos    int
	Gamma      sim.Duration // source recovery delay (data resumption)
	DstDisrupt sim.Duration
	Lost       uint64

	// Violations from the conformance checker. The Γ rule is disabled here
	// (the paper's bound is derived for scheme-3 timing), but the state
	// machine, claim, and traversal rules apply to every scheme.
	Violations []conformance.Violation
}

// SchemeComparisonResult compares the three channel-switching schemes of
// Figure 5 on recovery delay and destination disruption.
type SchemeComparisonResult struct {
	Hops int
	Rows []SchemeRow
}

// RunSchemeComparison measures schemes 1-3 with failures near the source,
// in the middle, and near the destination of an 8-hop torus connection.
func RunSchemeComparison(opts Options) SchemeComparisonResult {
	const hops = 8
	res := SchemeComparisonResult{Hops: hops}
	for _, scheme := range []bcpd.Scheme{bcpd.Scheme1, bcpd.Scheme2, bcpd.Scheme3} {
		for _, pos := range []int{0, hops / 2, hops - 1} {
			cfg := protocolTimingConfig()
			cfg.Scheme = scheme
			row := runSection5Trial(opts, cfg, 0, 1, pos, false)
			res.Rows = append(res.Rows, SchemeRow{
				Scheme:     scheme,
				FailPos:    pos,
				Gamma:      row.Gamma,
				DstDisrupt: row.DstDisrupt,
				Lost:       row.MessagesLost,
				Violations: row.Violations,
			})
		}
	}
	return res
}

// Render prints the scheme comparison.
func (r SchemeComparisonResult) Render() string {
	t := &metrics.Table{
		Title:   fmt.Sprintf("Figure 5 schemes: recovery delay by failure position (K=%d hops)", r.Hops),
		Columns: []string{"scheme", "fail-pos", "gamma", "dst-disruption", "msgs-lost"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("scheme %d", row.Scheme),
			fmt.Sprintf("link %d", row.FailPos),
			fmt.Sprintf("%v", time.Duration(row.Gamma)),
			fmt.Sprintf("%v", time.Duration(row.DstDisrupt)),
			fmt.Sprintf("%d", row.Lost),
		)
	}
	return t.String()
}
