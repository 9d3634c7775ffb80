package core

import (
	"fmt"
	"math"

	"github.com/rtcl/bcp/internal/reliability"
	"github.com/rtcl/bcp/internal/rtchan"
	"github.com/rtcl/bcp/internal/topology"
)

// muxEntry is the per-link bookkeeping for one backup channel (§3.2).
type muxEntry struct {
	ch    *rtchan.Channel
	conn  *DConnection
	alpha int     // paper's integer multiplexing degree
	nu    float64 // threshold ν = (α-0.5)·λ
	// pi is Π(Bi,ℓ): the backups on this link that Bi must NOT share spare
	// bandwidth with, restricted — per the paper's refinement — to backups
	// whose multiplexing degree is no greater than Bi's. Kept as a flat
	// duplicate-free slice: membership inserts dominate (once per conflicting
	// pair per shared link), while lookups and removals only happen on the
	// rare teardown/promotion paths, where a linear scan is fine.
	pi []rtchan.ChannelID
	// req is this backup's spare-bandwidth requirement on the link:
	// bw(Bi) + Σ_{Bj ∈ Π} bw(Bj).
	req float64
}

// piRemove removes id from Π(e) if present, reporting whether it was.
func (e *muxEntry) piRemove(id rtchan.ChannelID) bool {
	for i, x := range e.pi {
		if x == id {
			e.pi[i] = e.pi[len(e.pi)-1]
			e.pi = e.pi[:len(e.pi)-1]
			return true
		}
	}
	return false
}

// linkMux is one link's multiplexing state. The link's spare reservation is
// the maximum requirement over its entries; activation claims draw the pool
// down temporarily until reconfiguration.
//
// Entries live in a flat value slice, not a map: the admission scan in
// addBackupToLink walks every entry once per link of every new backup —
// the hottest loop of establishment — and a contiguous scan beats map
// iteration there. Lookups by channel ID (teardown, promotion, Ψ metrics)
// are rare and linear-scan over tens of entries.
type linkMux struct {
	entries []muxEntry
	spare   float64 // committed spare reservation (mirrors rtchan account)
	claimed float64 // drawn by activations since the last reconfiguration
	// claims tracks protocol-mode activation claims by channel, so the
	// bidirectional activations of Scheme 3 stay idempotent per link.
	claims map[rtchan.ChannelID]float64
	// maxReq caches the max requirement over entries. Requirement growth
	// updates it in place (noteReq); shrinkage that might dethrone the
	// current max sets reqDirty instead, and the next requiredSpare call
	// rescans. This keeps the add path — one noteReq per grown entry —
	// free of full-link scans.
	maxReq   float64
	reqDirty bool
}

// find returns the index of the entry for channel id, or -1.
func (lm *linkMux) find(id rtchan.ChannelID) int {
	for i := range lm.entries {
		if lm.entries[i].ch.ID == id {
			return i
		}
	}
	return -1
}

// removeAt swap-deletes the entry at index i, zeroing the vacated slot so
// its pi slice and pointers are released.
func (lm *linkMux) removeAt(i int) {
	last := len(lm.entries) - 1
	lm.entries[i] = lm.entries[last]
	lm.entries[last] = muxEntry{}
	lm.entries = lm.entries[:last]
}

// requiredSpare returns the max requirement over entries, rescanning only
// when a removal invalidated the cached value.
func (lm *linkMux) requiredSpare() float64 {
	if lm.reqDirty {
		var max float64
		for i := range lm.entries {
			if lm.entries[i].req > max {
				max = lm.entries[i].req
			}
		}
		lm.maxReq = max
		lm.reqDirty = false
	}
	return lm.maxReq
}

// requiredSpareRO returns the same value requiredSpare would, but never
// writes: a deferred rescan is serviced into a local instead of the cache.
// The establishment planner runs under the reader lock, where settling the
// dirty flag would be a data race.
func (lm *linkMux) requiredSpareRO() float64 {
	if !lm.reqDirty {
		return lm.maxReq
	}
	var max float64
	for i := range lm.entries {
		if lm.entries[i].req > max {
			max = lm.entries[i].req
		}
	}
	return max
}

// noteReq folds one entry's (possibly grown) requirement into the cached max.
func (lm *linkMux) noteReq(req float64) {
	if req > lm.maxReq {
		lm.maxReq = req
	}
}

// noteReqShrink records that req dropped from a value that may have been the
// cached max; a rescan is deferred until the next requiredSpare call.
func (lm *linkMux) noteReqShrink(oldReq float64) {
	if oldReq >= lm.maxReq {
		lm.reqDirty = true
	}
}

// available returns the spare bandwidth an activation can still claim.
func (lm *linkMux) available() float64 { return lm.spare - lm.claimed }

// mutualExclusion decides the Π relationship for a pair of backups a and b
// with primaries Ma and Mb (paper §3.2): they may share spare bandwidth iff
// S(Ba,Bb) < ν, evaluated per side against that side's own ν, and each side
// only *counts* peers with no greater degree. Backups of the same connection
// never share spare: they are activated by the same primary failure.
//
// It reports (a counts b in Π(a), b counts a in Π(b)).
func (m *Manager) mutualExclusion(a, b *muxEntry) (aCountsB, bCountsA bool) {
	if a.conn.ID == b.conn.ID {
		return true, true
	}
	pa, pb := a.conn.Primary, b.conn.Primary
	if pa == nil || pb == nil {
		// A connection that momentarily has no primary (its repaired
		// channel is rejoining while recovery is still unresolved) gets
		// conservative treatment: its backup shares spare with nothing.
		return true, true
	}
	s := m.pairS(a.conn, b.conn)
	if m.plan.cfg.DisablePiDegreeRestriction {
		return s >= a.nu, s >= b.nu
	}
	aCountsB = b.nu <= a.nu && s >= a.nu
	bCountsA = a.nu <= b.nu && s >= b.nu
	return aCountsB, bCountsA
}

// muxDecisionScratch memoizes mutualExclusion outcomes per peer channel for
// the duration of one addBackup call. The decision for a (new backup, peer
// channel) pair is link-independent, and the same peers recur on every link
// the two backups share, so the multi-link add pays for each peer once.
// Slots are generation-stamped slices indexed by ChannelID; forChan guards
// against reuse across different adds.
type muxDecisionScratch struct {
	gen     uint32
	forChan rtchan.ChannelID
	chanGen []uint32
	newInE  []bool
	eInNew  []bool
}

// begin starts memoizing decisions for a new backup channel.
func (d *muxDecisionScratch) begin(ch rtchan.ChannelID) {
	d.gen++
	if d.gen == 0 {
		for i := range d.chanGen {
			d.chanGen[i] = 0
		}
		d.gen = 1
	}
	d.forChan = ch
}

// lookup returns the memoized decision for peer channel id, if present.
func (d *muxDecisionScratch) lookup(id rtchan.ChannelID) (newInE, eInNew, ok bool) {
	if int(id) >= len(d.chanGen) || d.chanGen[id] != d.gen {
		return false, false, false
	}
	return d.newInE[id], d.eInNew[id], true
}

// store records the decision for peer channel id.
func (d *muxDecisionScratch) store(id rtchan.ChannelID, newInE, eInNew bool) {
	if int(id) >= len(d.chanGen) {
		n := int(id) + 1 + len(d.chanGen)/2
		grownGen := make([]uint32, n)
		copy(grownGen, d.chanGen)
		d.chanGen = grownGen
		grownA := make([]bool, n)
		copy(grownA, d.newInE)
		d.newInE = grownA
		grownB := make([]bool, n)
		copy(grownB, d.eInNew)
		d.eInNew = grownB
	}
	d.chanGen[id] = d.gen
	d.newInE[id] = newInE
	d.eInNew[id] = eInNew
}

// muxDecision is the pure decision formula shared by decideMux and the
// establishment planner: given S for the pair and the two thresholds, it
// reports (existing counts new in Π, new counts existing in Π). Identical to
// mutualExclusion's formula with a=e, b=new.
func muxDecision(s, eNu, newNu float64, disableRestriction bool) (eCountsNew, newCountsE bool) {
	if disableRestriction {
		return s >= eNu, s >= newNu
	}
	eCountsNew = newNu <= eNu && s >= eNu
	newCountsE = eNu <= newNu && s >= newNu
	return eCountsNew, newCountsE
}

// decideMux is the admission-scan fast path of mutualExclusion: the backup
// being added has its primary's components stamped in m.piMarks (see
// addBackup), so the shared-component count per peer is a handful of array
// loads instead of a sorted merge, and the pair cache is bypassed entirely
// (establishment-time pairs never repay storage; see sCache.admit). The
// decision formula is identical to mutualExclusion with a=e, b=entry.
func (m *Manager) decideMux(e, entry *muxEntry) (eCountsNew, newCountsE bool) {
	if e.conn.ID == entry.conn.ID {
		return true, true
	}
	pe := e.conn.Primary
	if pe == nil || entry.conn.Primary == nil {
		// Conservative treatment for a momentarily primary-less connection,
		// as in mutualExclusion.
		return true, true
	}
	sc := m.piMarks.Shared(pe.Path)
	s := m.simS(pe.Path.NumComponents(), entry.conn.Primary.Path.NumComponents(), sc)
	return muxDecision(s, e.nu, entry.nu, m.plan.cfg.DisablePiDegreeRestriction)
}

// addBackupToLink registers backup ch on link l and resizes the link's spare
// pool, enforcing the capacity invariant. On failure the link state is
// unchanged. Must run inside an addBackup call: the decision fast path
// reads the primary stamp addBackup set up.
func (m *Manager) addBackupToLink(l topology.LinkID, conn *DConnection, ch *rtchan.Channel, alpha int) error {
	lm := &m.plan.mux[l]
	bw := ch.Bandwidth()
	entry := muxEntry{
		ch:    ch,
		conn:  conn,
		alpha: alpha,
		nu:    reliability.NuForDegree(m.plan.cfg.Lambda, alpha),
		req:   bw,
	}
	// Decisions are reusable across links only within the addBackup call
	// that started the memo for this channel.
	memo := m.muxDec.forChan == ch.ID
	// Tentatively wire the new entry into the Π structure. No undo log is
	// kept: the rare rollback below reconstructs the growth by scanning for
	// Π memberships, exactly as removeBackupFromLink does. The new entry's Π
	// is collected in a reused scratch buffer and copied out once at its
	// final size: growing it in place by doubling allocates log2 |Π| times
	// per link, which dominates a replenishment's allocations on a busy
	// link.
	pi := m.piScratch[:0]
	for i := range lm.entries {
		e := &lm.entries[i]
		var newInE, eInNew bool
		hit := false
		if memo {
			newInE, eInNew, hit = m.muxDec.lookup(e.ch.ID)
		}
		if !hit {
			newInE, eInNew = m.decideMux(e, &entry)
			if memo {
				m.muxDec.store(e.ch.ID, newInE, eInNew)
			}
		}
		if newInE {
			e.pi = append(e.pi, ch.ID)
			e.req += bw
			lm.noteReq(e.req)
		}
		if eInNew {
			pi = append(pi, e.ch.ID)
			entry.req += e.ch.Bandwidth()
		}
	}
	m.piScratch = pi
	if len(pi) > 0 {
		entry.pi = append([]rtchan.ChannelID(nil), pi...)
	}
	lm.entries = append(lm.entries, entry)
	lm.noteReq(entry.req)
	need := lm.requiredSpare()
	if need > lm.spare {
		if err := m.plan.net.SetSpare(l, need); err != nil {
			// Roll back. The undone growth may have held the cached max.
			lm.removeAt(len(lm.entries) - 1)
			for i := range lm.entries {
				e := &lm.entries[i]
				if e.piRemove(ch.ID) {
					e.req -= bw
				}
			}
			lm.reqDirty = true
			return fmt.Errorf("core: link %d cannot grow spare to %g: %w", l, need, err)
		}
		lm.spare = need
	}
	return nil
}

// removeBackupFromLink unregisters backup ch from link l, shrinking the
// spare pool if possible. Shrinking cannot fail.
func (m *Manager) removeBackupFromLink(l topology.LinkID, ch *rtchan.Channel) {
	lm := &m.plan.mux[l]
	idx := lm.find(ch.ID)
	if idx < 0 {
		return
	}
	lm.noteReqShrink(lm.entries[idx].req)
	lm.removeAt(idx)
	bw := ch.Bandwidth()
	for i := range lm.entries {
		e := &lm.entries[i]
		if e.piRemove(ch.ID) {
			lm.noteReqShrink(e.req)
			e.req -= bw
		}
	}
	need := lm.requiredSpare()
	if need < lm.spare {
		// Never shrink below what activations have already claimed.
		if need < lm.claimed {
			need = lm.claimed
		}
		if err := m.plan.net.SetSpare(l, need); err != nil {
			panic("core: shrinking spare failed: " + err.Error())
		}
		lm.spare = need
	}
}

// addBackup registers a backup on every link of its path, transactionally.
func (m *Manager) addBackup(conn *DConnection, ch *rtchan.Channel, alpha int) error {
	m.muxDec.begin(ch.ID)
	if conn.Primary != nil {
		// Stamp the primary's components once; decideMux then counts each
		// peer primary's overlap with array loads (a primary-less conn —
		// mid-recovery rejoin — never reaches the stamp; see decideMux).
		m.piMarks.Set(conn.Primary.Path)
	}
	links := ch.Path.Links()
	for i, l := range links {
		if err := m.addBackupToLink(l, conn, ch, alpha); err != nil {
			for _, u := range links[:i] {
				m.removeBackupFromLink(u, ch)
			}
			return err
		}
	}
	return nil
}

// removeBackup unregisters a backup from all links of its path.
func (m *Manager) removeBackup(ch *rtchan.Channel) {
	for _, l := range ch.Path.Links() {
		m.removeBackupFromLink(l, ch)
	}
}

// PsiSizes returns |Ψ(B,ℓ)| for each link ℓ of backup ch's path: the number
// of backups multiplexed with it (all backups on the link minus Π minus the
// backup itself). Feeds the P_muxf bound of §3.3.
func (m *Manager) PsiSizes(ch *rtchan.Channel) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.psiSizes(ch)
}

func (m *Manager) psiSizes(ch *rtchan.Channel) []int {
	links := ch.Path.Links()
	out := make([]int, len(links))
	for i, l := range links {
		lm := &m.plan.mux[l]
		idx := lm.find(ch.ID)
		if idx < 0 {
			continue
		}
		psi := len(lm.entries) - len(lm.entries[idx].pi) - 1
		if psi < 0 {
			psi = 0
		}
		out[i] = psi
	}
	return out
}

// BackupsOnLink returns the number of backup channels registered on link l.
func (m *Manager) BackupsOnLink(l topology.LinkID) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.plan.mux[l].entries)
}

// SpareOnLink returns the committed spare reservation on link l.
func (m *Manager) SpareOnLink(l topology.LinkID) float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plan.mux[l].spare
}

// prospectiveSpareIncrease predicts how much link l's spare pool would grow
// if a backup with the given bandwidth, threshold ν, and primary path (held
// by ps) were admitted — the link weight of the [HAN97b]-style load-aware
// backup routing (RouteLoadAware). ps memoizes S per established connection
// across the candidate links of one routing search.
func (m *Manager) prospectiveSpareIncrease(l topology.LinkID, ps *prospectiveS, bw, nu float64) float64 {
	lm := &m.plan.mux[l]
	newReq := bw
	maxGrown := 0.0
	for i := range lm.entries {
		e := &lm.entries[i]
		if e.conn.Primary == nil {
			continue
		}
		s := ps.forConn(e.conn)
		var newInE, eInNew bool
		if m.plan.cfg.DisablePiDegreeRestriction {
			newInE, eInNew = s >= e.nu, s >= nu
		} else {
			newInE = nu <= e.nu && s >= e.nu
			eInNew = e.nu <= nu && s >= nu
		}
		if eInNew {
			newReq += e.ch.Bandwidth()
		}
		if newInE && e.req+bw > maxGrown {
			maxGrown = e.req + bw
		}
	}
	need := math.Max(newReq, maxGrown)
	if need <= lm.spare {
		return 0
	}
	return need - lm.spare
}

// recomputeLinkMux rebuilds the Π structure of one link from scratch —
// used by reconfiguration after primaries change (an activated backup's new
// primary path changes every S involving that connection).
func (m *Manager) recomputeLinkMux(l topology.LinkID) error {
	lm := &m.plan.mux[l]
	for i := range lm.entries {
		e := &lm.entries[i]
		e.pi = e.pi[:0] // reuse the allocated slice instead of reallocating
		e.req = e.ch.Bandwidth()
	}
	// Reconfiguration touches many links sharing the same connection pairs;
	// let their S values populate the pair cache.
	m.plan.scache.admit = true
	defer func() { m.plan.scache.admit = false }()
	// Each unordered entry pair once; the result is order-independent (a
	// pure function of the entry set).
	for i := range lm.entries {
		a := &lm.entries[i]
		for j := i + 1; j < len(lm.entries); j++ {
			b := &lm.entries[j]
			aCountsB, bCountsA := m.mutualExclusion(a, b)
			if aCountsB {
				a.pi = append(a.pi, b.ch.ID)
				a.req += b.ch.Bandwidth()
			}
			if bCountsA {
				b.pi = append(b.pi, a.ch.ID)
				b.req += a.ch.Bandwidth()
			}
		}
	}
	lm.reqDirty = true // rebuilt from scratch; rescan the fresh requirements
	need := math.Max(lm.requiredSpare(), lm.claimed)
	if err := m.plan.net.SetSpare(l, need); err != nil {
		return err
	}
	lm.spare = need
	return nil
}

// CheckMuxInvariants validates the engine's internal consistency; tests call
// it after mutation sequences. Besides the paper-level invariants it
// cross-checks the incremental caches (the per-link max requirement and the
// pairwise S memo) against from-scratch recomputation.
func (m *Manager) CheckMuxInvariants() error {
	// Exclusive, not shared: requiredSpare may service a deferred rescan
	// (writing lm.maxReq), so this "read-only" check is a writer to the
	// incremental caches it validates.
	m.mu.Lock()
	defer m.mu.Unlock()
	for l := range m.plan.mux {
		lm := &m.plan.mux[l]
		if !lm.reqDirty {
			var max float64
			for i := range lm.entries {
				if lm.entries[i].req > max {
					max = lm.entries[i].req
				}
			}
			if math.Abs(max-lm.maxReq) > 1e-9 {
				return fmt.Errorf("core: link %d cached max requirement %g, recomputed %g", l, lm.maxReq, max)
			}
		}
		if lm.spare+1e-9 < lm.requiredSpare() && lm.claimed == 0 {
			return fmt.Errorf("core: link %d spare %g below requirement %g", l, lm.spare, lm.requiredSpare())
		}
		if got := m.plan.net.Spare(topology.LinkID(l)); math.Abs(got-lm.spare) > 1e-6 {
			return fmt.Errorf("core: link %d spare mirror drift: mux=%g rtchan=%g", l, lm.spare, got)
		}
		for ei := range lm.entries {
			e := &lm.entries[ei]
			id := e.ch.ID
			// Entries must be unique per channel (find returns the first).
			if lm.find(id) != ei {
				return fmt.Errorf("core: link %d has duplicate entries for channel %d", l, id)
			}
			want := e.ch.Bandwidth()
			for i, peer := range e.pi {
				// Π is a set; a duplicate insert would inflate req and the
				// spare pool consistently, so check it explicitly.
				for _, later := range e.pi[i+1:] {
					if later == peer {
						return fmt.Errorf("core: link %d entry %d lists peer %d twice", l, id, peer)
					}
				}
				pi := lm.find(peer)
				if pi < 0 {
					return fmt.Errorf("core: link %d entry %d references absent peer %d", l, id, peer)
				}
				pe := &lm.entries[pi]
				want += pe.ch.Bandwidth()
				// The ν-ordering rule applies between connections that both
				// have primaries; a primary-less connection (mid-recovery
				// rejoin) is counted conservatively from both sides.
				if !m.plan.cfg.DisablePiDegreeRestriction && pe.nu > e.nu+1e-18 && pe.conn.ID != e.conn.ID &&
					pe.conn.Primary != nil && e.conn.Primary != nil {
					return fmt.Errorf("core: link %d entry %d counts peer %d with larger ν", l, id, peer)
				}
			}
			if math.Abs(want-e.req) > 1e-6 {
				return fmt.Errorf("core: link %d entry %d req drift: stored %g recomputed %g", l, id, e.req, want)
			}
		}
	}
	// Every current cache entry must match a fresh S computation; entries
	// with stale epochs or dead connections are unreachable and exempt.
	for k, v := range m.plan.scache.entries {
		lo, hi := rtchan.ConnID(k>>32), rtchan.ConnID(uint32(k))
		a, b := m.plan.conns[lo], m.plan.conns[hi]
		if a == nil || b == nil || a.Primary == nil || b.Primary == nil {
			continue
		}
		if v.epLo != m.plan.scache.epoch(lo) || v.epHi != m.plan.scache.epoch(hi) {
			continue
		}
		if want := m.referenceS(a, b); math.Abs(want-v.s) > 1e-15 {
			return fmt.Errorf("core: S-cache drift for pair (%d,%d): cached %g recomputed %g", lo, hi, v.s, want)
		}
	}
	return nil
}
