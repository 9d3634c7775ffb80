package bcpd

import (
	"github.com/rtcl/bcp/internal/core"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/sim"
	"github.com/rtcl/bcp/internal/topology"
	"github.com/rtcl/bcp/internal/trace"
	"github.com/rtcl/bcp/internal/wire"
)

// wireControl aliases the control-message type for brevity.
type wireControl = wire.Control

// chanState is the per-node channel state of Figure 4.
type chanState uint8

const (
	stateN chanState = iota // non-existent
	stateP                  // healthy primary
	stateB                  // healthy backup
	stateU                  // unhealthy
)

func (s chanState) String() string {
	switch s {
	case stateN:
		return "N"
	case stateP:
		return "P"
	case stateB:
		return "B"
	default:
		return "U"
	}
}

// route is a daemon's forwarding soft state for one channel.
type route struct {
	path topology.Path
	conn rtchan.ConnID
}

// daemon is the BCP daemon at one node.
type daemon struct {
	net  *Network
	id   topology.NodeID
	dead bool

	states map[rtchan.ChannelID]chanState
	// rejoinTimers holds each armed channel's live rejoin timer: a private
	// sim.Timer in the per-message engine, or a slot in a shared pooled
	// rejoinBatch under batched dispatch (round.go) — one heap entry and one
	// closure for every channel armed in a round, instead of one each per
	// channel.
	rejoinTimers map[rtchan.ChannelID]rejoinRef
	// rejoinStaged maps a channel to its staged arm's index in the current
	// dispatch round (round.go), so a re-arm in the same round dedups and a
	// stop cancels the staged arm before it ever becomes a timer.
	rejoinStaged map[rtchan.ChannelID]int
	// probeFns caches the rejoin-probe callbacks per channel: the closures
	// capture only stable identity (id, conn, path copy), so one build
	// amortizes across fail/repair cycles. Dropped with the rest of the soft
	// state when the channel returns to N. Unused (fresh closures per arm)
	// under PerMessageDispatch.
	probeFns map[rtchan.ChannelID]func()
	// routes is the daemon's own copy of each installed channel's route and
	// connection — the forwarding soft state a real daemon keeps. It
	// outlives the resource plane's registry entry so teardown closures can
	// still be forwarded hop-by-hop (and a source can still tell which
	// connection lost a channel) after the channel has been reclaimed, and
	// is deleted when the channel returns to state N here.
	routes map[rtchan.ChannelID]route
	// knownFailedBackups lets an end node skip backups it has received
	// failure reports for when selecting a serial to activate.
	knownFailedBackups map[rtchan.ChannelID]bool
}

func newDaemon(n *Network, id topology.NodeID) *daemon {
	return &daemon{
		net:                n,
		id:                 id,
		states:             make(map[rtchan.ChannelID]chanState),
		rejoinTimers:       make(map[rtchan.ChannelID]rejoinRef),
		rejoinStaged:       make(map[rtchan.ChannelID]int),
		probeFns:           make(map[rtchan.ChannelID]func()),
		routes:             make(map[rtchan.ChannelID]route),
		knownFailedBackups: make(map[rtchan.ChannelID]bool),
	}
}

// State returns the daemon's state for a channel (stateN when unknown).
func (d *daemon) State(ch rtchan.ChannelID) chanState { return d.states[ch] }

func (d *daemon) setState(ch rtchan.ChannelID, s chanState) {
	old := d.states[ch]
	if s == stateN {
		delete(d.states, ch)
		delete(d.routes, ch)
		delete(d.knownFailedBackups, ch)
		delete(d.probeFns, ch)
	} else {
		d.states[ch] = s
	}
	if old != s && d.net.em.Enabled() {
		d.net.emitState(d.id, ch, old, s)
	}
}

// install seeds the daemon's soft state for a channel routed through this
// node: the Figure-4 state plus the daemon's own copy of the route.
func (d *daemon) install(ch *rtchan.Channel, s chanState) {
	d.routes[ch.ID] = route{path: ch.Path, conn: ch.Conn}
	d.setState(ch.ID, s)
}

// routeOf resolves a channel's route from the daemon's forwarding soft
// state, falling back to the resource plane for channels installed
// out-of-band.
func (d *daemon) routeOf(chID rtchan.ChannelID) (route, bool) {
	if r, ok := d.routes[chID]; ok {
		return r, true
	}
	if ch := d.channel(chID); ch != nil {
		return route{path: ch.Path, conn: ch.Conn}, true
	}
	return route{}, false
}

func (d *daemon) channel(id rtchan.ChannelID) *rtchan.Channel {
	if ch := d.net.mgr.Network().Channel(id); ch != nil {
		return ch
	}
	return d.net.retired[id]
}

// handleControl dispatches a control message delivered by an RCC.
func (d *daemon) handleControl(c wireControl) {
	if d.dead {
		return
	}
	switch c.Type {
	case wire.MsgFailureReport:
		d.handleFailureReport(c)
	case wire.MsgActivation:
		d.handleActivation(c)
	case wire.MsgRejoinRequest:
		d.handleRejoinRequest(c)
	case wire.MsgRejoin:
		d.handleRejoin(c)
	case wire.MsgChannelClosure:
		d.handleClosure(c)
	case wire.MsgLinkFailure:
		d.handleLinkFailureNotify(c)
	}
}

// forwardAlong sends control c to the neighbor in c.Toward direction along
// channel ch's path, over the corresponding RCC. Reports traveling into a
// failed link are lost, exactly as in the paper — the failure itself (or the
// other direction's report) covers the remaining segment.
func (d *daemon) forwardAlong(ch *rtchan.Channel, c wireControl) {
	d.forwardAlongPath(ch.Path, c)
}

// forwardAlongPath is forwardAlong against an explicit route — the daemon's
// own forwarding soft state — so teardown closures still propagate after the
// resource plane has released the channel.
func (d *daemon) forwardAlongPath(p topology.Path, c wireControl) {
	idx := p.IndexOfNode(d.id)
	if idx < 0 {
		return
	}
	nodes := p.Nodes()
	links := p.Links()
	g := d.net.mgr.Graph()
	var l topology.LinkID
	switch {
	case c.Toward > 0 && idx < len(nodes)-1:
		// Control flow toward the destination uses the channel link when
		// healthy; the RCC rides the same physical link.
		l = links[idx]
	case c.Toward < 0 && idx > 0:
		// Toward the source: the reverse-direction link's RCC.
		l = g.Reverse(links[idx-1])
		if l == topology.NoLink {
			return
		}
	default:
		return // already at the end node
	}
	d.net.submitControl(l, c)
}

// --- Failure reporting (§4.1, §4.2) -----------------------------------

// originateFailureReport is called on the neighbor node that detected a
// component failure affecting channel ch (or on a node detecting a
// multiplexing failure). It processes the report locally and propagates it.
func (d *daemon) originateFailureReport(ch rtchan.ChannelID, toward int8) {
	if d.dead {
		return
	}
	d.net.stats.ReportsGenerated++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindReportOriginate, d.id, ch, int64(toward))
	}
	d.handleFailureReport(wireControl{
		Type:    wire.MsgFailureReport,
		Channel: int64(ch),
		Origin:  int32(d.id),
		Toward:  toward,
	})
}

func (d *daemon) handleFailureReport(c wireControl) {
	chID := rtchan.ChannelID(c.Channel)
	ch := d.channel(chID)
	if ch == nil {
		return
	}
	switch d.states[chID] {
	case stateU:
		return // duplicates ignored in state U (Figure 4)
	case stateN:
		return
	}
	d.setState(chID, stateU)
	d.armRejoinTimer(ch)

	idx := ch.Path.IndexOfNode(d.id)
	nodes := ch.Path.Nodes()
	atSource := idx == 0
	atDest := idx == len(nodes)-1
	if (c.Toward < 0 && atSource) || (c.Toward > 0 && atDest) {
		d.endNodeFailureAction(ch)
		return
	}
	d.forwardAlong(ch, c)
}

// endNodeFailureAction runs at a channel end node that has just learned of
// the channel's failure: record backup health, switch primaries, schedule
// the rejoin probe.
func (d *daemon) endNodeFailureAction(ch *rtchan.Channel) {
	conn := d.net.mgr.Connection(ch.Conn)
	if conn == nil {
		return
	}
	if ch.Role == rtchan.RoleBackup {
		d.knownFailedBackups[ch.ID] = true
		// Abandon any claims the dead activation holds.
		d.releaseClaims(ch)
	}
	isPrimary := conn.Primary != nil && conn.Primary.ID == ch.ID
	// A failed backup matters when the primary is already down: the end
	// node moves on to the next serial.
	if isPrimary || d.primaryDown(conn) {
		d.initiateSwitch(conn)
	}
	if ch.Path.Source() == d.id {
		d.scheduleRejoinProbe(ch)
	}
}

// primaryDown reports whether this end node believes the connection's
// current primary is unhealthy.
func (d *daemon) primaryDown(conn *core.DConnection) bool {
	if conn.Primary == nil {
		return true
	}
	return d.states[conn.Primary.ID] == stateU
}

// initiateSwitch selects the lowest-serial backup not known to have failed
// and starts activation from this end, per the configured scheme.
func (d *daemon) initiateSwitch(conn *core.DConnection) {
	scheme := d.net.cfg.Scheme
	atSource := d.id == conn.Src
	atDest := d.id == conn.Dst
	switch {
	case atSource && scheme == Scheme1:
		return // scheme 1 activates from the destination only
	case atDest && scheme == Scheme2:
		return // scheme 2 activates from the source only
	case !atSource && !atDest:
		return
	}
	// An activation already in progress from this end: wait for it to
	// complete or to be reported failed before trying another serial.
	for _, b := range conn.Backups {
		if d.states[b.ID] == stateP && !d.knownFailedBackups[b.ID] {
			return
		}
	}
	for _, b := range conn.Backups {
		if d.knownFailedBackups[b.ID] || d.states[b.ID] != stateB {
			continue
		}
		if unit := d.net.cfg.PriorityDelayUnit; unit > 0 {
			// Delayed activation (§4.3): lower-priority backups wait in
			// proportion to their multiplexing degree so that critical
			// connections claim spare bandwidth first.
			b := b
			wait := sim.Duration(d.net.mgr.DegreeOf(b.ID)) * unit
			d.net.rt.Schedule(wait, func() {
				if d.dead || d.states[b.ID] != stateB || d.knownFailedBackups[b.ID] {
					d.initiateSwitch(conn) // this serial died while waiting
					return
				}
				d.startActivation(conn, b, atSource)
			})
			return
		}
		d.startActivation(conn, b, atSource)
		return
	}
	// No usable backup: the connection needs re-establishment from scratch
	// (out of protocol scope; the rejoin timers will reclaim resources).
}

// startActivation activates backup b from this end node: local switch,
// claim on the adjacent link, and an activation message down the path.
func (d *daemon) startActivation(conn *core.DConnection, b *rtchan.Channel, fromSource bool) {
	d.net.stats.ActivationsStarted++
	if d.net.em.Enabled() {
		var aux int64
		if fromSource {
			aux = 1
		}
		d.net.emitChan(trace.KindActivationStart, d.id, b.ID, aux)
	}
	d.setState(b.ID, stateP)
	links := b.Path.Links()
	var claimLink topology.LinkID
	var toward int8
	if fromSource {
		claimLink = links[0]
		toward = 1
	} else {
		claimLink = links[len(links)-1]
		toward = -1
	}
	if !d.claimOrPreempt(b, claimLink) {
		d.muxFailure(b)
		return
	}
	if fromSource {
		// Data transfer resumes immediately after sending the activation
		// message (schemes 2 and 3).
		d.net.noteSourceSwitch(conn.ID, b.ID)
	}
	d.forwardAlong(b, wireControl{
		Type:    wire.MsgActivation,
		Channel: int64(b.ID),
		Origin:  int32(d.id),
		Toward:  toward,
	})
}

// handleActivation advances an activation message through an intermediate
// node (or completes it at the far end).
func (d *daemon) handleActivation(c wireControl) {
	chID := rtchan.ChannelID(c.Channel)
	b := d.channel(chID)
	if b == nil {
		return
	}
	switch d.states[chID] {
	case stateU:
		return // a newer failure owns this channel; its report is en route
	case stateP:
		// Already activated from the other end (Scheme 3 meeting point).
		d.net.stats.ActivationsMet++
		if d.net.em.Enabled() {
			d.net.emitChan(trace.KindActivationMeet, d.id, chID, 0)
		}
		d.finalizeActivation(b)
		return
	case stateN:
		return
	case stateB:
	}
	d.setState(chID, stateP)
	idx := b.Path.IndexOfNode(d.id)
	nodes := b.Path.Nodes()
	links := b.Path.Links()
	if c.Toward > 0 {
		if idx == len(nodes)-1 {
			d.finalizeActivation(b)
			if d.id == b.Path.Source() {
				// Degenerate single-hop case.
				d.net.noteSourceSwitch(b.Conn, b.ID)
			}
			return
		}
		if !d.claimOrPreempt(b, links[idx]) {
			d.muxFailure(b)
			return
		}
		d.forwardAlong(b, c)
		return
	}
	// Traveling toward the source.
	if idx == 0 {
		// The source switches on receiving the activation (Scheme 1: this
		// is when data transfer resumes).
		d.finalizeActivation(b)
		d.net.noteSourceSwitch(b.Conn, b.ID)
		return
	}
	if !d.claimOrPreempt(b, links[idx-1]) {
		d.muxFailure(b)
		return
	}
	d.forwardAlong(b, c)
}

// finalizeActivation promotes the backup in the resource plane exactly once.
func (d *daemon) finalizeActivation(b *rtchan.Channel) {
	if d.net.activated[b.ID] {
		return
	}
	conn := d.net.mgr.Connection(b.Conn)
	if conn == nil {
		return
	}
	if err := d.net.mgr.ActivateClaimed(b.Conn, b); err != nil {
		// Spare raced away between claim and promotion; treat as a
		// multiplexing failure.
		d.muxFailure(b)
		return
	}
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindActivationDone, d.id, b.ID, 0)
	}
	d.net.activated[b.ID] = true
	d.net.scheduleReplenish(b.Conn)
}

// claimOrPreempt claims spare bandwidth on link l for backup b, preempting
// a lower-priority claim if the configuration allows it (§4.3).
func (d *daemon) claimOrPreempt(b *rtchan.Channel, l topology.LinkID) bool {
	bw := b.Bandwidth()
	if d.net.mgr.ClaimSpareFor(l, b.ID, bw) {
		return true
	}
	if !d.net.cfg.AllowPreemption {
		return false
	}
	alpha := d.net.mgr.DegreeOf(b.ID)
	victim, ok := d.net.mgr.PreemptClaim(l, b.ID, alpha, bw)
	if !ok {
		return false
	}
	d.net.stats.Preemptions++
	// The preempted channel is handled as if disabled by a component
	// failure: report from here toward both of its end nodes.
	if vch := d.channel(victim); vch != nil {
		d.reportBothWays(vch)
	}
	return true
}

// reportBothWays marks ch unhealthy at this node and sends failure reports
// toward both end nodes (used for multiplexing failures and preemptions,
// which a single node detects).
func (d *daemon) reportBothWays(ch *rtchan.Channel) {
	d.setState(ch.ID, stateU)
	d.armRejoinTimer(ch)
	idx := ch.Path.IndexOfNode(d.id)
	if idx < 0 {
		return
	}
	if idx > 0 {
		d.forwardAlong(ch, wireControl{
			Type: wire.MsgFailureReport, Channel: int64(ch.ID), Origin: int32(d.id), Toward: -1,
		})
	} else {
		d.endNodeFailureAction(ch)
	}
	if idx < len(ch.Path.Nodes())-1 {
		d.forwardAlong(ch, wireControl{
			Type: wire.MsgFailureReport, Channel: int64(ch.ID), Origin: int32(d.id), Toward: 1,
		})
	} else {
		d.endNodeFailureAction(ch)
	}
}

// muxFailure handles exhaustion of spare bandwidth during activation:
// the backup is unusable and the failure is reported to both end nodes so
// they can try the next serial (§4.1).
func (d *daemon) muxFailure(b *rtchan.Channel) {
	d.net.stats.MuxFailures++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindMuxFailure, d.id, b.ID, 0)
	}
	d.releaseClaims(b)
	d.reportBothWays(b)
}

// releaseClaims abandons every claim ch holds along its path: one manager
// lock under batched dispatch, one per link in the per-message baseline.
func (d *daemon) releaseClaims(ch *rtchan.Channel) {
	if d.net.perMsg {
		for _, l := range ch.Path.Links() {
			d.net.mgr.ReleaseClaimFor(l, ch.ID)
		}
		return
	}
	d.net.mgr.ReleaseClaimBatch(ch.Path.Links(), ch.ID)
}

// --- Soft-state rejoin (§4.4, Figure 6) --------------------------------

func (d *daemon) armRejoinTimer(ch *rtchan.Channel) {
	if r := d.rejoinTimers[ch.ID]; r.active() {
		return
	}
	if r := &d.net.round; r.active {
		// Stage the arm; endRound funds every staged arm with one shared
		// batch timer (they all share RejoinTimeout, so staging order is
		// firing order) — no per-channel closure, no per-channel heap entry.
		if _, staged := d.rejoinStaged[ch.ID]; staged {
			return
		}
		d.rejoinStaged[ch.ID] = len(r.arms)
		r.arms = append(r.arms, rejoinArm{d: d, chID: ch.ID, connID: ch.Conn, path: ch.Path})
		return
	}
	chID, connID, path := ch.ID, ch.Conn, ch.Path
	d.rejoinTimers[ch.ID] = rejoinRef{t: d.net.rt.Schedule(d.net.cfg.RejoinTimeout, func() {
		if r := d.rejoinTimers[chID]; r.batch == nil {
			delete(d.rejoinTimers, chID)
		}
		d.rejoinExpire(chID, connID, path)
	})}
}

// rejoinExpire is the rejoin-timer expiry action: the channel's soft state
// never rejoined, so it is gone for good and its resources are reclaimed
// network-wide. Called from a batch entry under batched dispatch, or from a
// per-channel closure in the per-message baseline.
func (d *daemon) rejoinExpire(chID rtchan.ChannelID, connID rtchan.ConnID, path topology.Path) {
	if d.dead || d.states[chID] != stateU {
		return
	}
	d.net.stats.RejoinExpiries++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindRejoinExpire, d.id, chID, 0)
	}
	d.setState(chID, stateN)
	// First expiry reclaims the channel's resources network-wide; the
	// call is idempotent across nodes.
	_ = d.net.mgr.TeardownChannel(connID, chID)
	// Announce the teardown both ways. Nodes still in U reclaim on
	// their own timers, but a node that a straggling rejoin confirm
	// converted to B — stopping its timer — learns of the death only
	// from this closure.
	for _, toward := range [2]int8{1, -1} {
		d.forwardAlongPath(path, wireControl{
			Type: wire.MsgChannelClosure, Channel: int64(chID), Origin: int32(d.id), Toward: toward,
		})
	}
	// The channel is gone for good; if replenishment is on, the source
	// restores the connection's backup count (§4.4). The activation-time
	// trigger cannot cover this case: a backup lost to an unrepaired
	// failure never activates anything, and until this teardown the dead
	// channel still counted toward the target.
	if d.id == path.Source() {
		d.net.scheduleReplenish(connID)
	}
}

// scheduleRejoinProbe sends a rejoin-request along the failed channel after
// the probe delay, if the channel is still unhealthy. Inside a dispatch
// round the probe is staged — endRound funds the round's probes with one
// shared batch timer (batchtimer.go, they all share RejoinProbeDelay);
// otherwise a private timer with a per-channel closure is scheduled.
func (d *daemon) scheduleRejoinProbe(ch *rtchan.Channel) {
	if r := &d.net.round; r.active {
		r.probes = append(r.probes, probeEntry{d: d, chID: ch.ID})
		return
	}
	d.net.rt.Schedule(d.net.cfg.RejoinProbeDelay, d.probeFireFn(ch))
}

// probeFire is the probe-timer expiry action: if the channel is still
// unhealthy here, send a rejoin-request toward the destination.
func (d *daemon) probeFire(chID rtchan.ChannelID) {
	if d.dead || d.states[chID] != stateU {
		return
	}
	c := d.channel(chID)
	if c == nil {
		return
	}
	d.net.stats.RejoinRequests++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindRejoinRequest, d.id, chID, 0)
	}
	d.forwardAlong(c, wireControl{
		Type: wire.MsgRejoinRequest, Channel: int64(chID), Origin: int32(d.id), Toward: 1,
	})
}

// probeFireFn returns the rejoin-probe callback for ch, cached per channel
// outside per-message mode. Only non-round arms build closures at all —
// round-staged probes ride a batch timer.
func (d *daemon) probeFireFn(ch *rtchan.Channel) func() {
	if fn, ok := d.probeFns[ch.ID]; ok {
		return fn
	}
	chID := ch.ID
	fn := func() { d.probeFire(chID) }
	if !d.net.perMsg {
		d.probeFns[chID] = fn
	}
	return fn
}

func (d *daemon) handleRejoinRequest(c wireControl) {
	chID := rtchan.ChannelID(c.Channel)
	ch := d.channel(chID)
	if ch == nil || d.states[chID] != stateU {
		return // expired (N) or never here: the request dies
	}
	if d.id == ch.Path.Destination() {
		// Channel path is whole again: confirm with a rejoin message.
		d.net.stats.Rejoins++
		if d.net.em.Enabled() {
			d.net.emitChan(trace.KindRejoin, d.id, chID, 0)
		}
		d.setState(chID, stateB)
		d.stopRejoinTimer(chID)
		d.forwardAlong(ch, wireControl{
			Type: wire.MsgRejoin, Channel: int64(chID), Origin: int32(d.id), Toward: -1,
		})
		return
	}
	d.forwardAlong(ch, c)
}

func (d *daemon) handleRejoin(c wireControl) {
	chID := rtchan.ChannelID(c.Channel)
	ch := d.channel(chID)
	if ch == nil {
		return
	}
	switch d.states[chID] {
	case stateU:
		d.setState(chID, stateB)
		d.stopRejoinTimer(chID)
		if d.id == ch.Path.Source() {
			d.completeRejoin(ch)
			return
		}
		d.forwardAlong(ch, c)
	case stateN:
		// Timer already expired here: undo the repair on both sides
		// (Figure 6) — the confirm has already converted the nodes behind
		// it to B, and the nodes ahead may still be waiting in U.
		d.net.stats.Closures++
		if d.net.em.Enabled() {
			d.net.emitChan(trace.KindClosure, d.id, chID, 0)
		}
		for _, toward := range [2]int8{1, -1} {
			d.forwardAlong(ch, wireControl{
				Type: wire.MsgChannelClosure, Channel: int64(chID), Origin: int32(d.id), Toward: toward,
			})
		}
	default:
	}
}

// completeRejoin re-registers the repaired channel as a backup in the
// resource plane. If spare bandwidth can no longer accommodate it, the
// repair is abandoned with a closure.
func (d *daemon) completeRejoin(ch *rtchan.Channel) {
	conn := d.net.mgr.Connection(ch.Conn)
	if conn == nil {
		d.abandonRejoin(ch)
		return
	}
	alpha := 1
	if len(conn.Degrees) > 0 {
		alpha = conn.Degrees[len(conn.Degrees)-1]
	}
	if err := d.net.mgr.RestoreAsBackup(ch.Conn, ch.ID, alpha); err != nil {
		d.abandonRejoin(ch)
		return
	}
	d.knownFailedBackups[ch.ID] = false
	// The channel is a backup again: a future activation of it is a new
	// episode, so the promote-once guard must rearm. (Without this, a
	// channel that has been promoted once can never be promoted again —
	// visible under repeated fail/repair cycles.)
	if s := d.net.cfg.Sabotage; s == nil || !s.SkipPromoteRearm {
		delete(d.net.activated, ch.ID)
	}
}

func (d *daemon) abandonRejoin(ch *rtchan.Channel) {
	d.net.stats.Closures++
	if d.net.em.Enabled() {
		d.net.emitChan(trace.KindClosure, d.id, ch.ID, 0)
	}
	d.setState(ch.ID, stateN)
	d.forwardAlong(ch, wireControl{
		Type: wire.MsgChannelClosure, Channel: int64(ch.ID), Origin: int32(d.id), Toward: 1,
	})
	_ = d.net.mgr.TeardownChannel(ch.Conn, ch.ID)
}

func (d *daemon) handleClosure(c wireControl) {
	chID := rtchan.ChannelID(c.Channel)
	r, known := d.routeOf(chID)
	d.stopRejoinTimer(chID)
	if d.states[chID] == stateN {
		return
	}
	d.setState(chID, stateN)
	if !known {
		return
	}
	d.forwardAlongPath(r.path, c)
	// A closure that ends one of this source's channels does what the
	// source's own rejoin-timer expiry would have (rejoinExpire): restore
	// the connection's backup count. A path node whose timer expired first
	// sends the closure and stops the source's timer here, so without this
	// the lost backup would never be replaced. Duplicate requests are
	// harmless.
	if d.id == r.path.Source() {
		d.net.scheduleReplenish(r.conn)
	}
}

func (d *daemon) stopRejoinTimer(chID rtchan.ChannelID) {
	if i, ok := d.rejoinStaged[chID]; ok {
		d.net.round.arms[i].cancelled = true
		delete(d.rejoinStaged, chID)
	}
	if r, ok := d.rejoinTimers[chID]; ok {
		r.stop()
		delete(d.rejoinTimers, chID)
	}
}
