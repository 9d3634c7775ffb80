// Package core implements the paper's primary contribution: the Backup
// Channel Protocol (BCP) control plane.
//
// A dependable connection (D-connection) is a primary real-time channel plus
// zero or more cold-standby backup channels, routed component-disjointly.
// Spare bandwidth for backups is shared per link by *backup multiplexing*
// (§3.2): two backups may share spare bandwidth when the probability
// S(Bi,Bj) that they need simultaneous activation — bounded by the
// probability of simultaneous failure of their primaries — is below the
// per-connection multiplexing threshold ν.
//
// The Manager provides the transactional view used by the paper's
// evaluation: connection establishment (§3.4), failure trials measuring the
// fast-recovery ratio R_fast (§7.2-7.4), activation with spare-pool claims
// and multiplexing failures, and resource reconfiguration (§4.4). The
// message-level protocol machinery (failure reports, activation messages,
// rejoin, RCC transport) lives in internal/core's protocol files and
// internal/rcc.
package core

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/rtcl/bcp/internal/routing"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
)

// BackupRouting selects the algorithm used to route backup channels.
type BackupRouting uint8

const (
	// RouteSequential is the paper's method: each backup takes a shortest
	// feasible path avoiding all components of the connection's earlier
	// channels.
	RouteSequential BackupRouting = iota
	// RouteMaxFlow uses unit-capacity max-flow to find component-disjoint
	// paths, avoiding greedy traps ([WHA90, SID91]).
	RouteMaxFlow
	// RouteLoadAware implements the spare-resource-aware backup routing the
	// authors develop in [HAN97b]: each link is weighted by the growth of
	// its spare pool if the backup crossed it, so backups gravitate toward
	// links where they multiplex well. Reduces total spare bandwidth at the
	// cost of (bounded) longer backup paths.
	RouteLoadAware
)

// Config parameterizes a Manager.
type Config struct {
	// Lambda is the per-component failure probability during one time unit
	// (the paper's λ). It scales every multiplexing threshold.
	Lambda float64

	// TieBreak randomizes shortest-path tie-breaking when non-nil. The
	// paper's tie-breaking is unspecified; randomized tie-breaking spreads
	// load across a symmetric topology the way the reported numbers imply.
	TieBreak *rand.Rand

	// BackupRouting selects the backup path algorithm (default sequential).
	BackupRouting BackupRouting

	// BackupSlackHops bounds each backup path to the shortest feasible
	// disjoint path length plus this slack. Negative means unbounded;
	// 0 means shortest-disjoint only. The paper does not state a bound for
	// backups; the default (DefaultBackupSlackHops) mirrors the primary's
	// +2 rule.
	BackupSlackHops int

	// DelayModel parameterizes the analytic end-to-end delay admission test
	// applied to primaries whose TrafficSpec carries a DelayBound. The zero
	// value falls back to rtchan.DefaultDelayModel.
	DelayModel rtchan.DelayModel

	// DisablePiDegreeRestriction turns off the paper's §3.2 refinement that
	// Π(Bi,ℓ) only counts backups with no greater multiplexing degree.
	// With the refinement off, one small-ν backup forces the link's spare
	// pool to cover every conflicting backup — the overestimation the paper
	// warns about. Exposed for the ablation experiment.
	DisablePiDegreeRestriction bool
}

// DefaultBackupSlackHops mirrors the primary channels' +2-hop QoS rule.
const DefaultBackupSlackHops = 2

// DefaultConfig returns the configuration used by the paper's evaluation:
// λ=1e-4 and sequential shortest-path routing.
func DefaultConfig() Config {
	return Config{Lambda: 1e-4, BackupSlackHops: DefaultBackupSlackHops}
}

// DConnection is a dependable connection: a primary channel and its backups.
type DConnection struct {
	ID       rtchan.ConnID
	Src, Dst topology.NodeID
	Spec     rtchan.TrafficSpec

	Primary *rtchan.Channel
	Backups []*rtchan.Channel // in serial (activation) order
	Degrees []int             // multiplexing degree α per backup (paper's "mux=α")
}

// Channels returns the primary followed by the backups.
func (d *DConnection) Channels() []*rtchan.Channel {
	out := make([]*rtchan.Channel, 0, 1+len(d.Backups))
	if d.Primary != nil {
		out = append(out, d.Primary)
	}
	return append(out, d.Backups...)
}

// Manager is the BCP control plane for one network. It owns a shared
// NetworkPlan (the state the paper computes its tables from) plus the
// writer-side machinery that mutates it.
//
// Concurrency model (see DESIGN.md "Concurrency model"): the public API is
// safe for concurrent use. Mutating entry points (Establish, Teardown,
// Apply, the protocol-plane claim/activation calls, ...) serialize behind a
// single-writer lock; read entry points take the reader side, so any number
// of them may run during quiescence and none during a write. Failure-sweep
// workers should each hold their own TrialView (NewTrialView): Trial via a
// view is a pure read over the shared plan with per-goroutine scratch, so
// sweeps scale with cores without rebuilding per-worker managers.
//
// Two escape hatches bypass the lock and are writer-side or quiescent-only:
// Router (routing scratch arenas) and Network (the reservation substrate,
// read by experiments after establishment settles).
type Manager struct {
	// mu is the single-writer boundary: every mutating entry point holds it
	// exclusively, every reading entry point (and every TrialView trial)
	// holds it shared. Internal methods never lock — public wrappers lock
	// once and delegate, so the lock is never re-entered.
	mu   sync.RWMutex
	plan NetworkPlan

	nextConn rtchan.ConnID
	muxDec   muxDecisionScratch // per-addBackup mutualExclusion memo
	// piScratch collects a backup's Π on one link in addBackupToLink
	// before it is copied out at its final size.
	piScratch []rtchan.ChannelID
	// piMarks stamps the primary path of the backup being added, so the
	// admission scan's shared-component counts are array loads (decideMux).
	piMarks topology.PathMarks
	// router owns the routing scratch arenas and the per-source SPT cache.
	// It is writer-side state: establishment and recovery route under the
	// exclusive lock, and external Router() callers must not overlap writes.
	router *routing.Router
	// estExcl is the establishment-path exclusion set, reset per use. It is
	// shared by Establish and ReplenishBackups (never live at once); entry
	// points that interleave with Establish keep their own (see pr.go).
	estExcl *routing.Exclusion

	// estCtx is the writer-side planning context (wrapping m.router, estExcl,
	// piMarks and muxDec) and seqPlan its reusable plan buffer: sequential
	// Establish is plan+commit over these under the write lock, the same code
	// path the EstablishBatch pipeline speculates over (see establish.go).
	estCtx  *planContext
	seqPlan *connPlan
	// routers leases per-worker routing engines to batch planners; built
	// lazily on the first EstablishBatch (routersOnce).
	routers     *routing.RouterPool
	routersOnce sync.Once
	// pcPool recycles batch planner contexts (marks, memo, exclusion) and
	// planPool the per-request plan buffers, across EstablishBatch calls.
	pcPool   sync.Pool
	planPool sync.Pool

	// trial backs the Manager's own serial Trial entry point; trialMu keeps
	// that entry point safe against itself (concurrent sweeps should prefer
	// per-goroutine TrialViews, which don't contend on it).
	trialMu sync.Mutex
	trial   trialScratch

	// touched is the writer-side touched-link scratch shared by every
	// reconfiguration entry point (ActivateClaimed, TeardownChannel, Apply):
	// all of them run under the write lock and none nest, so one cleared map
	// serves each call without a per-call allocation. Recovery storms hit
	// these paths once per promotion and once per teardown.
	touched map[topology.LinkID]struct{}

	// piStale[l] marks that link l's stored pair decisions were derived from
	// a primary path that has since changed, so the next reconfiguration of l
	// must take the full Π rebuild; coalesceReconfig gates whether fresh
	// links may take the O(entries) resize instead (see reconfig.go).
	piStale          []bool
	coalesceReconfig bool

	// traceEm/traceClock emit protocol events from the claim paths when the
	// message-level engine attaches a sink (SetProtocolTrace). The zero
	// Emitter is disabled: one branch per claim call, no event construction.
	traceEm    trace.Emitter
	traceClock trace.Clock
}

// NewManager creates a BCP manager over an empty reservation network for g.
func NewManager(g *topology.Graph, cfg Config) *Manager {
	if cfg.Lambda <= 0 || cfg.Lambda >= 1 {
		panic(fmt.Sprintf("core: lambda %g out of (0,1)", cfg.Lambda))
	}
	m := &Manager{
		plan: NetworkPlan{
			cfg:    cfg,
			net:    rtchan.NewNetwork(g),
			conns:  make(map[rtchan.ConnID]*DConnection),
			mux:    make([]linkMux, g.NumLinks()),
			scache: newSCache(),
		},
		nextConn: 1,
		router:   routing.NewRouter(g),
		estExcl:  routing.NewExclusion(),
		piStale:  make([]bool, g.NumLinks()),
	}
	// Pre-warm the (1-λ)^k table past any component sum two primaries can
	// produce (each path has at most 2(N-1)+1 components), so read-side
	// planners never need to grow it.
	m.qpow(4 * g.NumNodes())
	m.estCtx = newPlanContext(m, m.router, m.estExcl, &m.piMarks, &m.muxDec)
	m.seqPlan = &connPlan{}
	return m
}

// beginWrite enters the single-writer critical section and advances the
// plan's write-transaction epoch; the returned function leaves the section.
// Every mutating entry point opens with `defer m.beginWrite()()` and then
// only calls unexported (lockless) methods, so the lock is never re-entered.
func (m *Manager) beginWrite() func() {
	m.mu.Lock()
	m.plan.epoch++
	return m.mu.Unlock
}

// takeTouched returns the shared touched-link scratch, cleared. Callers must
// hold the write lock; no reconfiguration entry point nests inside another,
// so the map is never live twice.
func (m *Manager) takeTouched() map[topology.LinkID]struct{} {
	if m.touched == nil {
		m.touched = make(map[topology.LinkID]struct{}, 32)
	}
	clear(m.touched)
	return m.touched
}

// Network exposes the reservation substrate (read-mostly; experiments use
// it for metrics). The pointer is stable for the manager's lifetime; its
// contents change under writes, so callers must not read it concurrently
// with mutating Manager calls.
func (m *Manager) Network() *rtchan.Network { return m.plan.net }

// Graph returns the topology.
func (m *Manager) Graph() *topology.Graph { return m.plan.net.Graph() }

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.plan.cfg }

// Router exposes the manager's routing engine. The router's scratch arenas
// are writer-side state: external callers must not use it concurrently with
// any Manager call that routes (Establish, ReplenishBackups, ...).
func (m *Manager) Router() *routing.Router { return m.router }

// PlanEpoch returns the plan's write-transaction counter: it advances on
// every mutating entry point, so two equal readings bracket a span with no
// intervening writes (the control-plane analogue of Graph.Version).
func (m *Manager) PlanEpoch() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan.epoch
}

// Connection returns the D-connection with the given id, or nil.
func (m *Manager) Connection(id rtchan.ConnID) *DConnection {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan.conns[id]
}

// Connections returns all live D-connections in establishment order.
func (m *Manager) Connections() []*DConnection {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*DConnection, 0, len(m.plan.conns))
	for _, id := range m.plan.order {
		if c, ok := m.plan.conns[id]; ok {
			out = append(out, c)
		}
	}
	return out
}

// NumConnections returns the number of live D-connections.
func (m *Manager) NumConnections() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.plan.conns)
}

// constraintForPrimary builds the admission-aware routing constraint for a
// primary channel: every link must have bw free, and the path must respect
// the QoS slack over the unconstrained shortest distance.
func (m *Manager) constraintForPrimary(bw float64, maxHops int) routing.Constraint {
	return routing.Constraint{
		MaxHops:  maxHops,
		TieBreak: m.plan.cfg.TieBreak,
		LinkAllowed: func(l topology.LinkID) bool {
			return m.plan.net.Free(l) >= bw-1e-9
		},
	}
}
