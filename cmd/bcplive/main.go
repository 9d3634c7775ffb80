// Command bcplive boots a BCP network live — every daemon an actor goroutine
// on the wall-clock runtime, traffic crossing a real transport (in-memory
// pipes or loopback UDP datagrams) — injects a primary-link failure, and
// reports the measured recovery delay against the paper's §5 Γ bound.
//
// Usage:
//
//	bcplive                        # 3x3 mesh, pipe transport, 5 trials
//	bcplive -rows 4 -cols 4        # bigger mesh
//	bcplive -transport udp         # real datagrams on the loopback
//	bcplive -rate 1000 -trials 10  # heavier traffic, more trials
//
// Each trial establishes one D-connection corner to corner (primary plus one
// disjoint backup), streams data, crashes the middle link of the primary, and
// measures two wall-clock delays from the failure instant: Γ, when the source
// switches to the backup, and the first data arrival at the destination after
// the switch. Γ is compared to the §5.3 bound (K-1)·D_max with D_max from
// ProtocolConfig.PerHopBound, the same helper internal/experiment's Section 5
// harness uses. D_max counts PropDelay per hop; the pipe transport emulates
// that delay on every hop, UDP over the loopback does not, so UDP Γ sits far
// below the bound and the output says which case applies. On a quiet machine
// live Γ lands inside the bound; scheduler jitter (unlike the simulator, the
// OS is part of the system) can push it over —
// the tool reports, it does not assert.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/rtcl/bcp"
)

type trialResult struct {
	gamma  time.Duration // failure -> source switch
	resume time.Duration // failure -> first data arrival after the switch
}

func main() {
	rows := flag.Int("rows", 3, "mesh rows")
	cols := flag.Int("cols", 3, "mesh columns")
	capacity := flag.Float64("capacity", 10, "link capacity in Mbps")
	transport := flag.String("transport", "pipe", "live transport: pipe or udp")
	rate := flag.Float64("rate", 500, "data messages per second")
	trials := flag.Int("trials", 5, "failure trials (fresh network each)")
	seed := flag.Int64("seed", 1, "runtime RNG seed")
	flag.Parse()

	cfg := bcp.DefaultProtocolConfig()
	// The Γ bound assumes immediate detection; keep the comparison honest.
	cfg.DetectionLatency = 0

	var results []trialResult
	for i := 0; i < *trials; i++ {
		r, err := runTrial(*rows, *cols, *capacity, *transport, *rate, *seed+int64(i), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bcplive: trial %d: %v\n", i, err)
			os.Exit(1)
		}
		results = append(results, r)
	}

	// The bound depends only on the topology and config; recompute the
	// path length once for the report.
	g := bcp.NewMesh(*rows, *cols, *capacity)
	paths := bcp.SequentialDisjointPaths(g, 0, bcp.NodeID(g.NumNodes()-1), 2, bcp.RoutingConstraint{})
	if len(paths) < 2 {
		fmt.Fprintf(os.Stderr, "bcplive: no disjoint corner-to-corner paths on %dx%d mesh\n", *rows, *cols)
		os.Exit(1)
	}
	hops := paths[0].Hops()
	bound := time.Duration(hops-1) * cfg.PerHopBound(*capacity)

	fmt.Printf("bcplive: %dx%d mesh, %s transport, %d-hop primary, %.0f msg/s\n",
		*rows, *cols, *transport, hops, *rate)
	fmt.Printf("Γ bound (K-1)·D_max = %v (D_max counts PropDelay %v per hop)\n",
		bound, cfg.PropDelay)
	if *transport == "pipe" {
		fmt.Printf("pipe transport emulates PropDelay on every hop: measured Γ includes it\n\n")
	} else {
		fmt.Printf("udp transport adds no PropDelay: measured Γ is loopback time only, so it sits far below the bound\n\n")
	}
	fmt.Printf("%-8s %-14s %-14s %s\n", "trial", "Γ (measured)", "data resumed", "within bound")
	gammas := make([]time.Duration, 0, len(results))
	for i, r := range results {
		in := "yes"
		if r.gamma > bound {
			in = "NO (wall-clock jitter)"
		}
		fmt.Printf("%-8d %-14v %-14v %s\n", i, r.gamma, r.resume, in)
		gammas = append(gammas, r.gamma)
	}
	sort.Slice(gammas, func(i, j int) bool { return gammas[i] < gammas[j] })
	fmt.Printf("\nΓ p50 %v, max %v over %d trials\n",
		gammas[len(gammas)/2], gammas[len(gammas)-1], len(gammas))
}

// runTrial boots one fresh live network, crashes the primary's middle link,
// and measures the recovery.
func runTrial(rows, cols int, capacity float64, transport string, rate float64, seed int64, cfg bcp.ProtocolConfig) (trialResult, error) {
	g := bcp.NewMesh(rows, cols, capacity)
	mgr := bcp.NewManager(g, bcp.DefaultConfig())
	paths := bcp.SequentialDisjointPaths(g, 0, bcp.NodeID(g.NumNodes()-1), 2, bcp.RoutingConstraint{})
	if len(paths) < 2 {
		return trialResult{}, fmt.Errorf("no disjoint corner-to-corner paths")
	}
	conn, err := mgr.EstablishOnPaths(bcp.DefaultSpec(), paths[0], paths[1:2], []int{1})
	if err != nil {
		return trialResult{}, err
	}

	rt := bcp.NewRealtimeRuntime(seed)
	rt.StartActors(g.NumNodes(), 1024)
	var tr bcp.Transport
	switch transport {
	case "pipe":
		tr = bcp.NewPipeTransport(rt.Post, 1024)
	case "udp":
		tr = bcp.NewUDPTransport(rt.Post)
	default:
		rt.Stop()
		return trialResult{}, fmt.Errorf("unknown transport %q", transport)
	}
	defer rt.Stop()
	defer tr.Close()

	var net *bcp.Protocol
	rt.Exec(func() { net = bcp.NewProtocolOn(rt, tr, mgr, cfg) })
	var startErr error
	rt.Exec(func() { startErr = net.StartTraffic(conn.ID, rate) })
	if startErr != nil {
		return trialResult{}, startErr
	}

	wait := func(what string, cond func() bool) error {
		limit := time.Now().Add(10 * time.Second)
		for {
			var ok bool
			rt.Exec(func() { ok = cond() })
			if ok {
				return nil
			}
			if time.Now().After(limit) {
				return fmt.Errorf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if err := wait("pre-failure data", func() bool { return net.Stats().DataDelivered >= 20 }); err != nil {
		return trialResult{}, err
	}

	links := conn.Primary.Path.Links()
	fail := links[len(links)/2]
	var failAt bcp.Time
	rt.Exec(func() {
		failAt = rt.Now()
		net.FailLink(fail)
	})

	if err := wait("source switch", func() bool { return len(net.SourceSwitches(conn.ID)) == 1 }); err != nil {
		return trialResult{}, err
	}
	var switchAt bcp.Time
	rt.Exec(func() { switchAt = net.SourceSwitches(conn.ID)[0] })

	var resumeAt bcp.Time
	if err := wait("data resumption", func() bool {
		at, ok := net.FirstArrivalAfter(conn.ID, switchAt)
		resumeAt = at
		return ok
	}); err != nil {
		return trialResult{}, err
	}

	return trialResult{
		gamma:  switchAt.Sub(failAt),
		resume: resumeAt.Sub(failAt),
	}, nil
}
