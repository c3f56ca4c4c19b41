package sim

import (
	"fmt"

	"mcastsim/internal/destset"
	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// channel is one directional hop: a switch output port's line to its peer
// input buffer, a switch node-port's line to an NI, or a node's injection
// line into its home switch. A channel carries one flit per cycle and is
// used by one sender (branch) at a time.
type channel struct {
	dstBuf  *inputBuf       // when toSwitch
	dstNode topology.NodeID // when !toSwitch (ejection into an NI)

	// sh owns the channel: the SENDER's shard (credits, line occupancy
	// and the active-sender slot are all mutated by the pump/grant/
	// release path). dst is the receiving side's shard — evDeliver is
	// posted there; equal to sh for ejection and injection lines.
	sh  *shardState
	dst *shardState

	credits   int // free slots in dstBuf (meaningless for ejection)
	lineFree  event.Time
	sender    *branch // active sender, for credit wake-ups
	busyFlits int64   // flits carried, for utilization reports

	// The small fields share the last words (one channel per wired port
	// and per host, so padding is paid hundreds of thousands of times).
	toSwitch bool
	// dead marks a failed channel: the active sender is torn down at the
	// break, in-flight flits past it are drained and dropped, and no new
	// grant streams over it until a repair resets the flag.
	dead bool
	// fromSw and from name the sender for label: the sending switch and
	// port, or fromSw = -1 and the injecting node for an injection line.
	fromSw, from int32
	obsID        int32 // index in Network.obsChans; meaningful only while obs is attached
}

// label names the channel for utilization reports, obs series and
// diagnostics: "s3p5->s7" (switch 3 port 5 to switch 7), "ej n4"
// (ejection into node 4's NI) or "inj n4" (node 4's injection line).
// Formatted on demand; a network holds one channel per wired port and
// per host, and nothing on the simulation path reads the text.
func (ch *channel) label() string {
	switch {
	case ch.fromSw < 0:
		return fmt.Sprintf("inj n%d", ch.from)
	case ch.toSwitch:
		return fmt.Sprintf("s%dp%d->s%d", ch.fromSw, ch.from, ch.dstBuf.sw)
	default:
		return fmt.Sprintf("ej n%d", ch.dstNode)
	}
}

// inputBuf is a switch input port's FIFO flit buffer with credit-based
// backpressure. Worms pass through it strictly head-of-line: only the
// oldest resident worm is routed and forwarded.
type inputBuf struct {
	net  *Network
	sh   *shardState // the owning switch's shard
	sw   topology.SwitchID
	port int
	cap  int
	used int

	upstream  *channel // the channel feeding this buffer (for credit return)
	occupants []*occupant
}

// bindUpstream records the channel feeding this buffer once it is known.
func (b *inputBuf) bindUpstream(up *channel) { b.upstream = up }

// creditReturn hands one buffer slot back to the feeding channel and
// wakes its sender. Scheduled as evCredit on the channel's owning (sender)
// shard after the link delay; called directly when a drained straggler
// flit returns its slot immediately (fault teardown, serial engines only).
func (b *inputBuf) creditReturn() {
	up := b.upstream
	up.credits++
	if up.sender != nil {
		up.sender.schedulePump(up.sh.now())
	}
}

// occupant tracks one worm's residence in an input buffer.
type occupant struct {
	buf      *inputBuf
	w        *worm
	arrived  int // flits received so far
	evicted  int // flits freed so far (forwarded by every consumer branch)
	routed   bool
	routing  bool // a routing event is pending
	killed   bool // torn down by the fault layer; removed from the buffer
	detached bool // no longer in its buffer's occupant list (recyclable)
	live     int  // undone branches still attached (gates recycling)
	branches []*branch
}

// branch is one replication output of a worm at a hop: it streams the flit
// window [offset, w-parent-len) of its occupant's stream through one
// channel as the child worm `w`. NI packet injection reuses branch with a
// nil occupant (all flits are already in NI memory).
//
// An elastic branch drains from the switch's internal replication buffer:
// its flits are copied out of the input buffer on arrival, so its own
// stalls never backpressure upstream. Tree-worm replication is elastic on
// every branch — the asynchronous central-buffer replication of
// Stunkel/Sivaram/Panda (ISCA'97) that the paper assumes as "support for
// deadlock-free replication at the switches" (naive synchronous
// replication AND-couples branches and deadlocks when down paths
// reconverge; our stress tests reproduce that). Path-worm drops are
// likewise elastic (delivery buffering at the switch), but a path worm's
// continuation is synchronous: when it blocks, the worm stalls and holds
// its channel chain, the classic wormhole behavior that limits path-based
// multicast under load.
type branch struct {
	net     *Network
	sh      *shardState // the shard the branch lives (and pumps) on
	occ     *occupant   // nil for NI injection
	w       *worm       // the child worm delivered downstream; w.len flits to send
	elastic bool

	offset int // index in the occupant stream where this branch starts
	sent   int // flits sent so far; done when sent == w.len

	ch      *channel // set at grant (or at creation for NI injection)
	port    *outPort // nil for NI injection
	pumping bool
	done    bool

	// injNI, when non-nil, is the NI whose injection stream this branch
	// carries: one cycle after the tail flit the NI's streamDone runs
	// (with injLast reporting whether this was the burst's final worm)
	// to start the next packet. Replaces a per-stream closure.
	injNI   *ni
	injLast bool

	// req is the branch's pending arbitration entry; a kill cancels it
	// lazily by marking it granted.
	req *portRequest
	// drops, when non-nil, names the exact destinations this branch
	// delivers (path-worm drop branches: the worm still carries the whole
	// remaining path, but the branch ejects to one node).
	drops []topology.NodeID
}

// deliver lands one flit at the branch's destination after the link
// delay (the evDeliver handler, dispatched on the destination shard).
// ch and w are fixed for the branch's lifetime, so reading them at
// dispatch time matches the old engine's capture-at-grant closures
// exactly — and gives the cross-shard event a stable frozen payload.
func (br *branch) deliver() {
	ch := br.ch
	if ch.toSwitch {
		ch.dstBuf.flitArrive(br.w)
		return
	}
	br.net.nis[ch.dstNode].flitArrive(br.w)
}

// tailRelease frees the branch's port (or injection line) one cycle
// after its tail flit, then advances the owning NI's injection stream
// (the evTail handler).
func (br *branch) tailRelease() {
	if br.port != nil {
		br.port.release(br)
	} else if br.ch.sender == br {
		br.ch.sender = nil
	}
	if br.injNI != nil {
		br.injNI.streamDone(br.injLast)
	}
}

// outPort is a switch output port with wormhole-style allocation: a worm
// holds it from header grant until its tail passes; contenders queue FIFO.
type outPort struct {
	net    *Network
	sh     *shardState // the owning switch's shard
	sw     topology.SwitchID
	port   int
	ch     *channel
	holder *branch
	dead   bool // the port's channel (or switch) has failed
	queue  []*portRequest
}

// portRequest is an arbitration entry. Adaptive unicast routing files one
// request against several candidate ports; the first to free up wins and
// the request is lazily removed from the rest.
type portRequest struct {
	br *branch
	// phases[i] is the up*/down* phase the worm assumes if ports[i] wins.
	ports   []*outPort
	phases  []updown.Phase
	granted bool
}

// --- input buffer ---

func (b *inputBuf) flitArrive(w *worm) {
	if w.dead {
		// Straggler flit of a torn-down worm: drain it. The sender already
		// spent a credit on it; hand the credit straight back if the
		// feeding channel is still alive so the buffer slot never leaks.
		// (Worms die only under the fault layer — serial engines — so the
		// direct cross-structure call never runs under shard workers.)
		b.sh.stats.FlitsDropped++
		if b.upstream != nil && !b.upstream.dead {
			b.creditReturn()
		}
		return
	}
	b.used++
	if b.used > b.cap {
		panic(fmt.Sprintf("sim: input buffer %d/%d overflow (credit accounting bug)", b.sw, b.port))
	}
	var o *occupant
	if n := len(b.occupants); n > 0 && b.occupants[n-1].w == w {
		o = b.occupants[n-1]
	} else {
		o = b.sh.getOccupant()
		o.buf = b
		o.w = w
		wormRef(w) // the occupant's assembly leg; released at recycle
		b.occupants = append(b.occupants, o)
	}
	o.arrived++
	if o.arrived > w.len {
		panic("sim: more flits arrived than worm length")
	}
	if o == b.occupants[0] && !o.routed && !o.routing {
		o.routing = true
		b.sh.postAfter(b.net.params.RoutingDelay, evRoute, o, 0)
	}
	if o.routed {
		// New flit may unblock consumer branches.
		for _, br := range o.branches {
			br.schedulePump(b.sh.now())
		}
		o.advanceEviction()
	}
}

// advanceEviction frees buffer slots whose flits every consumer branch has
// forwarded (or never needed), returning credits upstream.
func (o *occupant) advanceEviction() {
	if !o.routed || o.killed {
		return
	}
	b := o.buf
	sh := b.sh
	for o.evicted < o.arrived {
		i := o.evicted
		freed := true
		for _, br := range o.branches {
			if br.elastic {
				continue // drains from the replication buffer instead
			}
			if i >= br.offset && br.sent <= i-br.offset {
				freed = false
				break
			}
		}
		if !freed {
			break
		}
		o.evicted++
		b.used--
		// The credit lands on the feeding channel's owner — the sender
		// shard — one link delay out: at or past the window edge, which
		// is exactly the conservative lookahead.
		sh.postTo(b.upstream.sh, sh.now()+b.net.params.LinkDelay, evCredit, b, 0)
	}
	o.maybeComplete()
}

// maybeComplete retires a fully drained head occupant and starts routing
// the next resident worm.
func (o *occupant) maybeComplete() {
	b := o.buf
	if o.killed || o.detached || o.evicted != o.w.len || len(b.occupants) == 0 || b.occupants[0] != o {
		return
	}
	b.occupants = b.occupants[1:]
	o.detached = true
	b.sh.tryRecycleOccupant(o)
	if len(b.occupants) > 0 {
		next := b.occupants[0]
		if next.arrived > 0 && !next.routed && !next.routing {
			next.routing = true
			b.sh.postAfter(b.net.params.RoutingDelay, evRoute, next, 0)
		}
	}
}

// --- routing ---

// route flips the occupant's routing flags and hands the header to the
// worm-advancement dispatcher (the evRoute handler).
func (o *occupant) route() {
	sh := o.buf.sh
	o.routing = false
	if o.killed {
		// The pending routing event was the last thing pinning a
		// torn-down occupant.
		sh.tryRecycleOccupant(o)
		return
	}
	o.routed = true
	sh.advanceWorm(o)
}

// wormPlanner emits the branches advancing one worm kind past a switch.
type wormPlanner func(*shardState, *occupant, topology.SwitchID, *worm)

// wormPlanners is advanceWorm's dispatch table, indexed by WormKind.
var wormPlanners = [...]wormPlanner{
	WormUnicast: (*shardState).planUnicast,
	WormTree:    (*shardState).planTree,
	WormPath:    (*shardState).planPath,
}

// branchSpec describes one replication output a planner wants: the child
// worm it forwards, the flit window it starts at, its delivery flavor,
// and the candidate output ports. emitBranch turns specs into filed
// arbitration requests identically for all three worm kinds.
type branchSpec struct {
	child    *worm
	offset   int
	elastic  bool
	drops    []topology.NodeID
	ports    []int
	phases   []updown.Phase
	adaptive bool // shuffle candidates (the simulator's adaptivity tie-break)
}

// emitBranch realizes one branchSpec: the shared create-and-file step
// behind every worm kind's advancement. spec.ports/phases may live in
// shard scratch; fileRequest copies before retaining.
func (sh *shardState) emitBranch(o *occupant, s topology.SwitchID, spec branchSpec) {
	br := sh.newBranch(o, spec.child, spec.offset)
	br.elastic = spec.elastic
	br.drops = spec.drops
	if spec.adaptive {
		sh.fileAdaptive(br, s, spec.ports, spec.phases)
		return
	}
	sh.fileRequest(br, s, spec.ports, spec.phases)
}

// advanceWorm is the single worm-advancement dispatcher: it traces the
// routing decision, runs the worm kind's planner, applies the tree
// scheme's central-buffer elasticity, and lets absorbed header flits
// evict. Unicast, tree replication and path stops all flow through here.
func (sh *shardState) advanceWorm(o *occupant) {
	s := o.buf.sw
	w := o.w
	sh.net.trace(TraceEvent{Kind: TraceRoute, Worm: w.id, Msg: w.msg.ID, Pkt: w.pkt, Switch: s, Port: o.buf.port})
	wormPlanners[w.kind](sh, o, s, w)
	// Tree-worm replication passes through the switch's central buffer
	// (ISCA'97): wherever the worm split, every branch drains from that
	// buffer.
	if w.kind == WormTree && len(o.branches) > 1 {
		for _, b := range o.branches {
			b.elastic = true
		}
	}
	// Flits that no branch consumes (absorbed headers, or a worm with no
	// outputs) can free up immediately.
	o.advanceEviction()
}

// singleSpec loads the one-port scratch pair for single-candidate specs,
// avoiding a slice-literal escape per branch.
func (sh *shardState) singleSpec(p int, ph updown.Phase) ([]int, []updown.Phase) {
	sh.scr.onePort[0] = p
	sh.scr.onePhase[0] = ph
	return sh.scr.onePort[:], sh.scr.onePhase[:]
}

func (sh *shardState) planUnicast(o *occupant, s topology.SwitchID, w *worm) {
	n := sh.net
	home := n.topo.NodeSwitch[w.dest]
	if home == s {
		ports, phases := sh.singleSpec(n.rt.NodePortAt(s, w.dest), w.phase)
		sh.emitBranch(o, s, branchSpec{child: w.child(sh, 0),
			ports: ports, phases: phases})
		return
	}
	ports, phases := sh.nextHops(s, w.phase, home)
	if len(ports) == 0 {
		n.routeFailure(o, s, fmt.Sprintf("no legal route for %v phase %v", w, w.phase))
		return
	}
	sh.emitBranch(o, s, branchSpec{child: w.child(sh, 0),
		ports: ports, phases: phases, adaptive: true})
}

func (sh *shardState) planTree(o *occupant, s topology.SwitchID, w *worm) {
	n := sh.net
	remaining := sh.getDset()
	remaining.copyFrom(w.destSet)
	// Local deliveries: destinations attached to this switch drop here
	// regardless of the climb state.
	if n.localIntersects(remaining, s) {
		for _, node := range n.nodesAt[s] {
			if !remaining.contains(int(node)) {
				continue
			}
			remaining.remove(int(node))
			ds := sh.getDset()
			ds.add(int(node))
			ports, phases := sh.singleSpec(n.rt.NodePortAt(s, node), w.phase)
			sh.emitBranch(o, s, branchSpec{child: w.childSet(sh, 0, ds),
				ports: ports, phases: phases})
		}
	}
	if remaining.empty() {
		sh.putDset(remaining)
		return
	}
	if remaining.subsetOfBits(n.rt.Cover[s]) {
		// Replicate down: partition the remaining set across down ports.
		parts, ok := sh.partitionDownAdaptive(s, remaining)
		if !ok {
			n.routeFailure(o, s, fmt.Sprintf("down partition cannot cover %v", remaining.indices()))
			sh.putDset(remaining)
			return
		}
		sh.putDset(remaining)
		for _, ps := range parts {
			// The partition subset becomes the child's destination set
			// (pooled; ownership transfers to the child worm).
			c := w.childSet(sh, 0, ps.sub)
			c.phase = updown.PhaseDown
			ports, phases := sh.singleSpec(ps.port, updown.PhaseDown)
			sh.emitBranch(o, s, branchSpec{child: c,
				ports: ports, phases: phases})
		}
		return
	}
	if w.phase == updown.PhaseDown {
		n.routeFailure(o, s, fmt.Sprintf("tree worm %v descended to a switch that cannot cover %v", w, remaining.indices()))
		sh.putDset(remaining)
		return
	}
	if n.params.EarlyTreeBranch {
		// Ablation variant: peel off down-coverable subsets while climbing.
		for _, p := range n.downPorts[s] {
			if !remaining.intersectsBits(n.rt.DownReach[s][p]) {
				continue
			}
			sub := sh.getDset()
			remaining.intersectInto(sub, n.rt.DownReach[s][p])
			remaining.differenceWith(sub)
			c := w.childSet(sh, 0, sub)
			c.phase = updown.PhaseDown
			ports, phases := sh.singleSpec(p, updown.PhaseDown)
			sh.emitBranch(o, s, branchSpec{child: c,
				ports: ports, phases: phases})
		}
		if remaining.empty() {
			sh.putDset(remaining)
			return
		}
	}
	// Climb: continue on an up port along a shortest up-path to a switch
	// that covers the remainder (the paper's "travel adaptively to a least
	// common ancestor switch using links in the up direction").
	ports := sh.climbPorts(s, remaining)
	if len(ports) == 0 {
		n.routeFailure(o, s, fmt.Sprintf("tree worm %v stuck: no up port reaches a switch covering %v", w, remaining.indices()))
		sh.putDset(remaining)
		return
	}
	c := w.childSet(sh, 0, remaining) // remaining's ownership moves to the child
	phases := sh.scr.phaseScratch[:0]
	for range ports {
		phases = append(phases, updown.PhaseUp)
	}
	sh.scr.phaseScratch = phases
	sh.emitBranch(o, s, branchSpec{child: c,
		ports: ports, phases: phases, adaptive: true})
}

func (sh *shardState) planPath(o *occupant, s topology.SwitchID, w *worm) {
	n := sh.net
	if len(w.path) == 0 {
		panic("sim: path worm with no remaining segments")
	}
	seg := w.path[0]
	if seg.Switch != s {
		// In transit toward the segment's stop switch: ordinary adaptive
		// unicast routing, header intact.
		ports, phases := n.rt.NextHops(s, w.phase, seg.Switch)
		if len(ports) == 0 {
			n.routeFailure(o, s, fmt.Sprintf("path worm %v has no legal route toward switch %d", w, seg.Switch))
			return
		}
		sh.emitBranch(o, s, branchSpec{child: w.child(sh, 0),
			ports: ports, phases: phases, adaptive: true})
		return
	}
	// Stop switch: the segment's node-ID and port-mask fields are stripped
	// here; drops and the continuation forward the shortened stream.
	skip := PathSegFlitsFor(n.topo.PortsPerSwitch, n.topo.NumNodes, n.topo.NumSwitches)
	if skip > w.len {
		panic("sim: path worm shorter than its own header")
	}
	rest := w.path[1:]
	for _, d := range seg.Drops {
		p := n.rt.NodePortAt(s, d)
		if p < 0 {
			panic(fmt.Sprintf("sim: path worm drop %d not attached to switch %d", d, s))
		}
		c := w.child(sh, skip)
		c.path = rest
		// Drops are buffered deliveries: the worm never stalls on them
		// (the multi-drop mechanism's delivery buffering); only the
		// continuation below is synchronous.
		sh.emitBranch(o, s, branchSpec{child: c, offset: skip,
			elastic: true, drops: []topology.NodeID{d},
			ports: []int{p}, phases: []updown.Phase{w.phase}})
	}
	if seg.NextPort >= 0 {
		// The continuation port was legal when the plan was built; a fault
		// plus reconfiguration can have killed the link or flipped its
		// orientation since.
		dir := n.rt.Dirs[s][seg.NextPort]
		if dir == updown.DirNone {
			n.routeFailure(o, s, fmt.Sprintf("path worm %v continues out port %d, which is no longer a legal switch port", w, seg.NextPort))
			return
		}
		if dir == updown.DirUp && w.phase == updown.PhaseDown {
			n.routeFailure(o, s, fmt.Sprintf("path worm %v would make an up turn after down out port %d", w, seg.NextPort))
			return
		}
		next := w.phase
		if dir == updown.DirDown {
			next = updown.PhaseDown
		}
		if len(rest) == 0 {
			panic("sim: path worm continues with no remaining segments")
		}
		c := w.child(sh, skip)
		c.path = rest
		c.phase = next
		sh.emitBranch(o, s, branchSpec{child: c, offset: skip,
			ports: []int{seg.NextPort}, phases: []updown.Phase{next}})
	}
}

// portSet is one branch of a down partition.
type portSet struct {
	port int
	sub  dset
}

// partitionDownAdaptive splits a covered destination set across down
// ports like updown.PartitionDown (greedy largest overlap, so copies stay
// few), but breaks overlap ties with the arbitration RNG. Reachability
// strings of parallel down paths overlap heavily in dense networks; a
// deterministic tie-break would funnel every worm through the same ports,
// while real switches are free to pick any covering port. The result is
// an ordered slice — callers create branches in this order, and branch
// order feeds arbitration, so it must not depend on map iteration. ok is
// false when the down ports cannot cover the set — impossible under the
// Covers precondition on healthy routing state, but reachable when a fault
// invalidates the reachability strings mid-run.
func (sh *shardState) partitionDownAdaptive(s topology.SwitchID, set dset) ([]portSet, bool) {
	n := sh.net
	c := sh.cache
	c.sync(n.routingEpoch)
	var key partKey
	var cached *partEntry
	if !c.disabled {
		key = partKey{sw: int32(s), fp: sh.destFP(set)}
		if e := c.part[key]; e != nil && set.equalRuns(e.key) {
			cached = e
			if !e.tied {
				// Hit: burn the identical shuffle the miss path draws so
				// the arbitration RNG stream stays byte-for-byte equal,
				// then hand out pooled copies of the cached partition.
				sh.arb.Shuffle(len(n.downPorts[s]), func(i, j int) {})
				out := sh.scr.partScratch[:0]
				for i, p := range e.ports {
					sub := sh.getDset()
					sub.copyFromRuns(e.subs[i])
					out = append(out, portSet{port: int(p), sub: sub})
				}
				sh.scr.partScratch = out
				return out, true
			}
			// Tied entry: the greedy choice depends on the shuffle, so
			// recompute in full (which consumes the shuffle naturally).
		}
	}
	remaining := sh.getDset()
	remaining.copyFrom(set)
	downs := append(sh.scr.downScratch[:0], n.downPorts[s]...)
	sh.scr.downScratch = downs
	sh.arb.Shuffle(len(downs), func(i, j int) { downs[i], downs[j] = downs[j], downs[i] })
	out := sh.scr.partScratch[:0]
	tied := false
	for !remaining.empty() {
		best, bestCount, dup := -1, 0, false
		for _, p := range downs {
			if sh.scr.usedPorts[p] {
				continue
			}
			c := remaining.andCountBits(n.rt.DownReach[s][p])
			if c > bestCount {
				best, bestCount, dup = p, c, false
			} else if c == bestCount && c > 0 {
				dup = true
			}
		}
		if best == -1 {
			for _, ps := range out {
				sh.scr.usedPorts[ps.port] = false
				sh.putDset(ps.sub)
			}
			sh.putDset(remaining)
			sh.scr.partScratch = out[:0]
			return nil, false
		}
		if dup {
			tied = true
		}
		sub := sh.getDset()
		remaining.intersectInto(sub, n.rt.DownReach[s][best])
		sh.scr.usedPorts[best] = true
		out = append(out, portSet{port: best, sub: sub})
		remaining.differenceWith(sub)
	}
	for _, ps := range out {
		sh.scr.usedPorts[ps.port] = false
	}
	sh.putDset(remaining)
	sh.scr.partScratch = out
	if !c.disabled && cached == nil {
		// First sighting of this (switch, set): record it. Untied
		// partitions store cache-owned run snapshots; tied ones store only
		// the flag so future calls go straight to the recomputation.
		if len(c.part) >= c.partCap {
			clear(c.part)
		}
		e := &partEntry{key: set.cloneRuns(), tied: tied}
		if !tied {
			e.ports = make([]int32, len(out))
			e.subs = make([]*destset.Runs, len(out))
			for i, ps := range out {
				e.ports[i] = int32(ps.port)
				e.subs[i] = ps.sub.cloneRuns()
			}
		}
		c.part[key] = e
	}
	return out, true
}

// climbPorts returns the up ports of s that begin a shortest all-up path to
// a switch covering set (reverse BFS from all covering switches over up
// links, memoized per destination set by the route cache). The result
// lives in shard scratch.
func (sh *shardState) climbPorts(s topology.SwitchID, set dset) []int {
	dist := sh.climbDist(set)
	if dist[s] <= 0 {
		return nil // s covers already (caller bug) or nothing reachable
	}
	out := sh.scr.portScratch[:0]
	for _, pp := range sh.net.upAdj[s] {
		if dist[pp.sw] == dist[s]-1 {
			out = append(out, pp.port)
		}
	}
	sh.scr.portScratch = out
	return out
}

// --- branches and arbitration ---

// newBranch pulls a pooled branch for child's stream. A nil occupant
// means NI injection (all flits already in NI memory). The branch holds
// a reference on its worm until the post-done quarantine reclaims it.
func (sh *shardState) newBranch(o *occupant, child *worm, offset int) *branch {
	br := sh.getBranch()
	br.occ = o
	br.w = child
	br.offset = offset
	wormRef(child)
	if o != nil {
		o.branches = append(o.branches, br)
		o.live++
	}
	return br
}

// fileAdaptive shuffles candidate ports (the simulator's adaptivity
// tie-break) and files the request. ports/phases must be mutable
// (scratch or freshly built), never cached storage.
func (sh *shardState) fileAdaptive(br *branch, s topology.SwitchID, ports []int, phases []updown.Phase) {
	sh.arb.Shuffle(len(ports), func(i, j int) {
		ports[i], ports[j] = ports[j], ports[i]
		phases[i], phases[j] = phases[j], phases[i]
	})
	sh.fileRequest(br, s, ports, phases)
}

// fileRequest arbitrates br onto one of the candidate ports of switch s.
// The common case — some candidate is free — grants directly without
// materializing a portRequest; only genuine contention allocates one
// (with owned copies of the candidate list, since ports/phases may be
// shard scratch).
func (sh *shardState) fileRequest(br *branch, s topology.SwitchID, ports []int, phases []updown.Phase) {
	n := sh.net
	sw := n.switches[s]
	if n.faulted {
		// Routing state can lag a fault by up to the detection delay: drop
		// candidate ports that have died since the tables were computed.
		live, livePhases := ports[:0], phases[:0]
		for i, p := range ports {
			if op := sw.outPorts[p]; op != nil && op.dead {
				continue
			}
			live = append(live, p)
			livePhases = append(livePhases, phases[i])
		}
		ports, phases = live, livePhases
		if len(ports) == 0 {
			n.deadEndBranch(br)
			return
		}
	}
	for i, p := range ports {
		op := sw.outPorts[p]
		if op == nil {
			panic(fmt.Sprintf("sim: request against unwired port (switch %d)", br.occ.buf.sw))
		}
		if op.holder == nil {
			op.grantTo(br, phases[i])
			return
		}
	}
	if r := n.obsRec; r != nil {
		r.ArbConflict(int32(s))
	}
	outs := make([]*outPort, len(ports))
	owned := make([]updown.Phase, len(phases))
	for i, p := range ports {
		outs[i] = sw.outPorts[p]
		owned[i] = phases[i]
	}
	req := &portRequest{br: br, ports: outs, phases: owned}
	br.req = req
	for _, op := range outs {
		op.queue = append(op.queue, req)
	}
}

// grant hands the port to request index i and starts the branch's stream.
func (o *outPort) grant(req *portRequest, i int) {
	req.granted = true
	o.grantTo(req.br, req.phases[i])
}

// grantTo gives br the port with the worm assuming phase ph — the shared
// tail of queued grants and the allocation-free direct grant.
func (o *outPort) grantTo(br *branch, ph updown.Phase) {
	br.port = o
	br.ch = o.ch
	br.w.phase = ph
	o.holder = br
	o.ch.sender = br
	o.net.trace(TraceEvent{Kind: TraceGrant, Worm: br.w.id, Msg: br.w.msg.ID, Pkt: br.w.pkt, Switch: o.sw, Port: o.port})
	br.schedulePump(o.sh.now() + o.net.params.CrossbarDelay)
}

// release frees the port after a tail passes and grants the next waiter.
func (o *outPort) release(br *branch) {
	if o.holder != br {
		// A killed branch's deferred tail-release can trail the teardown
		// that already force-released the port; that is not a bug.
		if br.w.dead || o.dead {
			return
		}
		panic("sim: releasing a port held by another branch")
	}
	o.holder = nil
	if o.ch.sender == br {
		o.ch.sender = nil
	}
	if o.dead {
		return // no grants over a failed channel; the queue was failed over
	}
	for len(o.queue) > 0 {
		req := o.queue[0]
		o.queue = o.queue[1:]
		if req.granted {
			continue // won elsewhere
		}
		for i, p := range req.ports {
			if p == o {
				o.grant(req, i)
				return
			}
		}
	}
}

// --- flit pump ---

// schedulePump arranges for pump to run at time t (or now, whichever is
// later); redundant calls while a pump is pending are no-ops.
func (br *branch) schedulePump(t event.Time) {
	if br.pumping || br.done || br.ch == nil {
		return
	}
	br.pumping = true
	now := br.sh.now()
	if t < now {
		t = now
	}
	br.sh.post(t, evPump, br, 0)
}

// pump attempts to send one flit; it self-schedules while streaming and
// goes dormant (woken by flit arrival or credit return) when blocked.
func (br *branch) pump() {
	br.pumping = false
	if br.done {
		return
	}
	net := br.net
	sh := br.sh
	ch := br.ch
	if ch.dead || br.w.dead {
		// The channel failed under us (or the worm was torn down) between
		// scheduling and running this pump.
		net.deadEndBranch(br)
		return
	}
	now := sh.now()
	if now < ch.lineFree {
		br.schedulePump(ch.lineFree)
		return
	}
	if br.occ != nil && br.occ.arrived <= br.offset+br.sent {
		return // flit not here yet; flitArrive will wake us
	}
	if ch.toSwitch {
		if ch.credits == 0 {
			if r := net.obsRec; r != nil {
				r.CreditStall(ch.obsID)
			}
			return // no buffer space; credit return will wake us
		}
		ch.credits--
	}
	ch.lineFree = now + 1
	br.sent++
	ch.busyFlits++
	sh.stats.FlitHops++
	w := br.w
	// The flit lands on the channel's destination shard one link delay
	// out — at or past the window edge, the conservative lookahead.
	sh.postTo(ch.dst, now+net.params.LinkDelay, evDeliver, br, 0)
	if br.occ != nil {
		br.occ.advanceEviction()
	}
	if br.sent == w.len {
		br.done = true
		if br.port != nil {
			net.trace(TraceEvent{Kind: TraceTail, Worm: w.id, Msg: w.msg.ID, Pkt: w.pkt, Switch: br.port.sw, Port: br.port.port})
		}
		sh.postAfter(1, evTail, br, 0)
		sh.postAfter(net.reclaimAfter, evReclaim, br, 0)
		if br.occ != nil {
			// Complete the occupant before detaching: detaching can
			// recycle it, and maybeComplete must read its live state.
			br.occ.maybeComplete()
			sh.detachBranch(br)
		}
		return
	}
	br.schedulePump(now + 1)
}
