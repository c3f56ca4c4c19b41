package sim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mcastsim/internal/event"
	"mcastsim/internal/obs"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// Stats aggregates conservation and throughput counters over a simulation.
type Stats struct {
	WormsCreated    int64 // worm entities, including replication children
	PacketsInjected int64 // packet streams started at NIs
	FlitHops        int64 // flit transmissions over any channel
	FlitsDelivered  int64 // flits absorbed by NIs
	PacketsAtNI     int64 // packets fully assembled at receiving NIs
	PacketsToHost   int64 // packets DMA'd into host memory
	MessagesSent    int64
	MessagesDone    int64

	// Fault-layer counters (all zero on fault-free runs).
	FlitsDropped int64 // flits of torn-down worms drained on arrival
	WormsKilled  int64 // worms torn down by the fault layer
	DestsFailed  int64 // destination deliveries declared failed
	Reconfigs    int64 // routing-table rebuilds that completed

	// Dynamic-group counters (all zero without registered groups).
	MembershipEvents int64 // applied (non-redundant) join/leave events
	StaleDeliveries  int64 // deliveries to nodes that had left the group
	MissedDeliveries int64 // in-flight snapshots that excluded a joiner
}

// switchState holds one switch's per-port runtime structures; unwired
// (open) ports have nil entries.
type switchState struct {
	inBufs   []*inputBuf
	outPorts []*outPort
}

// portPeer records one end of an up link for the climb BFS.
type portPeer struct {
	sw   int // peer switch (upAdj) or predecessor switch (revUp)
	port int // local port carrying the link
}

// Network is a runnable simulation instance: a routed topology plus all
// switch, link and NI state, driven by a discrete-event queue. It is not
// safe for concurrent use; one goroutine owns one Network.
type Network struct {
	topo   *topology.Topology
	rt     *updown.Routing
	params Params
	queue  event.Queue
	arb    *rng.Source

	// running guards the event loop against concurrent entry (see
	// enterRun): a cheap assertion of the one-goroutine-per-Network
	// contract, not a synchronization mechanism.
	running atomic.Bool

	switches []switchState
	nis      []*ni

	// upAdj[s] lists s's up ports and their peers; revUp[q] lists the
	// (switch, port) pairs whose up port lands on q.
	upAdj [][]portPeer
	revUp [][]portPeer

	// outstanding is atomic because fast-mode destination completion
	// decrements it from shard workers; every other engine touches it
	// from the single event-loop goroutine.
	outstanding atomic.Int64
	nextWormID  int64
	nextMsgID   int64
	stats       Stats
	tracer      func(TraceEvent)

	// Sharded-PDES state (see shard.go). shs always has nshards >= 1
	// entries; in serial modes every entry aliases the shared state
	// above. lanes is the serial-equivalence merge engine, fset the
	// parallel window engine; with both nil the network runs its own
	// single calendar queue exactly as before sharding existed.
	nshards int
	shs     []*shardState
	swShard []int32
	lanes   *event.ShardSet
	fset    *event.FastSet

	// Observability (see obs.go): obsRec nil means disabled — the only
	// state the rest of the pipeline ever checks. obsChans indexes every
	// channel in registration order for delta sampling; obsTickArmed
	// dedups the self-rescheduling evObsFlush tick.
	obsRec       *obs.Recorder
	obsChans     []*channel
	obsTickArmed bool

	// Fault-layer state (see fault.go). deadLink/deadSwitch mirror the
	// injected faults; faulted flips true at the first fault and gates the
	// dead-port filtering in fileRequest; partitioned records a failed
	// reconfiguration; invariant holds the first routing-invariant
	// violation seen on a fault-free run; progress counts control-plane
	// steps for the stall watchdog; reconfigEpoch coalesces detection
	// windows.
	deadLink      []bool
	deadSwitch    []bool
	faulted       bool
	partitioned   bool
	invMu         sync.Mutex
	invariant     *InvariantError
	progress      int64
	reconfigEpoch int

	// routingEpoch versions the routing-derived state (tables, port
	// orientations, reachability); every applied fault/repair and every
	// table swap bumps it, and the route cache flushes when it lags.
	routingEpoch int
	cache        routeCache

	// origOpts is the routing-options value the network was constructed
	// with — the stable identity Checkpoint fingerprints, since rt.Opts
	// changes when reconfiguration swaps tables. lastSwapOpts records
	// the updown options of the most recent successful reconfiguration
	// swap, so Checkpoint can serialize the routing state as "rebuild
	// with these options" instead of the full tables (the rebuild is
	// deterministic). Nil until the first swap.
	origOpts     updown.Options
	lastSwapOpts *updown.Options

	// Dynamic multicast groups (see group.go); empty on static runs.
	groups []*Group

	// Topology/routing precomputes rebuilt alongside the tables.
	nodesAt   [][]topology.NodeID // nodes attached to each switch
	downPorts [][]int             // rt.DownPorts per switch

	// hostLo/hostHi give each switch's attached hosts as a contiguous id
	// range [lo, hi] when the attachment is contiguous (every scale
	// generator numbers hosts per edge switch that way), replacing the
	// per-switch localNodes bit strings — an O(S×N) table that costs
	// ~1.25 GB at 10k switches × 1M hosts. lo=0/hi=-1 marks a hostless
	// switch; lo=-1 marks an irregular attachment, where planTree's local
	// gate falls back to probing nodesAt[s] (paper-size nets are tiny, so
	// the probe is a handful of Contains calls).
	hostLo []int32
	hostHi []int32

	// sparse selects the run-coded destination-set representation for
	// every pooled planning set (see dset.go); fixed at New from
	// Params.SetRep and never changed.
	sparse bool

	// reclaimAfter is the branch quarantine horizon (see pool.go).
	reclaimAfter event.Time

	// Shared free lists and per-decision scratch (see shard.go): every
	// serial-mode shard aliases these; fast-mode shards own private
	// instances.
	pools entityPools
	scr   scratchSpace
}

// Engine selects the scheduler backend a Network runs on. The calendar
// queue is the production engine; the legacy binary heap is kept for the
// determinism suite, which proves both dispatch identical event streams.
type Engine = event.Backend

const (
	// EngineCalendar is the typed-event calendar-queue scheduler.
	EngineCalendar = event.BackendCalendar
	// EngineHeap is the legacy binary-heap scheduler (same typed
	// entries, (time, seq)-ordered heap instead of bucket ring).
	EngineHeap = event.BackendHeap
)

// New assembles a network over a routed topology. The seed drives only
// adaptive-routing tie-breaks; identical seeds give identical runs.
// Options (WithEngine, WithTrace, WithObs) are applied after assembly,
// before any event exists; their application order is fixed, so the
// order they are passed in never matters.
func New(rt *updown.Routing, params Params, seed uint64, opts ...Option) (*Network, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	var o netOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.shards > 1 && o.engineSet && o.engine == EngineHeap {
		return nil, &event.BackendShardError{Backend: o.engine, Shards: o.shards}
	}
	t := rt.Topo
	n := &Network{
		topo:     t,
		rt:       rt,
		params:   params,
		arb:      rng.New(seed),
		origOpts: rt.Opts,
	}
	n.sparse = params.SetRep == RepSparse ||
		(params.SetRep == RepAuto && t.NumNodes >= SparseUniverseThreshold)
	n.initShards(o.shards, o.fastShards, seed)
	if n.lanes != nil {
		n.registerKinds(n.lanes)
	} else if n.fset != nil {
		for i := 0; i < n.fset.Shards(); i++ {
			n.registerKinds(n.fset.Queue(i))
		}
	} else {
		n.registerKinds(&n.queue)
	}

	// Instantiate per-port, per-channel and per-host structures from a
	// fixed set of slabs: the switch states themselves, one array each of
	// input buffers, output ports, channels and NIs, and one pointer
	// array per port kind sliced per switch (open ports keep nil
	// entries). Nothing is appended to a slab after New, so the pointers
	// into them stay valid for the network's lifetime. Every buffer and
	// output port of a switch belongs to that switch's shard.
	S, P := t.NumSwitches, t.PortsPerSwitch
	wired := 0
	for s := 0; s < S; s++ {
		for p := 0; p < P; p++ {
			if t.Conn[s][p].Kind != topology.Open {
				wired++
			}
		}
	}
	bufPtrs := make([]*inputBuf, S*P)
	portPtrs := make([]*outPort, S*P)
	bufs := make([]inputBuf, wired)
	ports := make([]outPort, wired)
	chans := make([]channel, wired+t.NumNodes)
	n.switches = make([]switchState, S)
	k := 0
	for s := 0; s < S; s++ {
		st := &n.switches[s]
		st.inBufs = bufPtrs[s*P : (s+1)*P : (s+1)*P]
		st.outPorts = portPtrs[s*P : (s+1)*P : (s+1)*P]
		sh := n.shardOf(topology.SwitchID(s))
		for p := 0; p < P; p++ {
			if t.Conn[s][p].Kind == topology.Open {
				continue
			}
			bufs[k] = inputBuf{net: n, sh: sh, sw: topology.SwitchID(s), port: p, cap: params.BufferFlits}
			ports[k] = outPort{net: n, sh: sh, sw: topology.SwitchID(s), port: p}
			st.inBufs[p] = &bufs[k]
			st.outPorts[p] = &ports[k]
			k++
		}
	}

	// Wire channels: switch output ports to their peers, and per-node
	// injection lines. A channel is owned by its sender's shard (credit
	// and line state are mutated on the sending side); dst records the
	// receiving shard for the boundary evDeliver hop. Wired output port
	// k sends on chans[k]; node i's injection line is chans[wired+i].
	for k := range ports {
		op, ch := &ports[k], &chans[k]
		switch e := t.Conn[op.sw][op.port]; e.Kind {
		case topology.ToSwitch:
			peer := n.switches[e.Switch].inBufs[e.Port]
			*ch = channel{toSwitch: true, dstBuf: peer, credits: peer.cap,
				sh: op.sh, dst: peer.sh, fromSw: int32(op.sw), from: int32(op.port)}
			peer.bindUpstream(ch)
		case topology.ToNode:
			// The ejection channel's NI is homed on this switch, so
			// ejection never crosses a shard boundary.
			*ch = channel{toSwitch: false, dstNode: e.Node,
				sh: op.sh, dst: op.sh, fromSw: int32(op.sw), from: int32(op.port)}
		}
		op.ch = ch
	}
	nis := make([]ni, t.NumNodes)
	n.nis = make([]*ni, t.NumNodes)
	for node := 0; node < t.NumNodes; node++ {
		home := t.NodeSwitch[node]
		buf := n.switches[home].inBufs[t.NodePort[node]]
		inj := &chans[wired+node]
		*inj = channel{toSwitch: true, dstBuf: buf, credits: buf.cap,
			sh: buf.sh, dst: buf.sh, fromSw: -1, from: int32(node)}
		buf.bindUpstream(inj)
		// The receive maps stay nil until the NI's first partial worm or
		// packet (see ni.flitArrive); most hosts of a large network never
		// receive.
		nis[node] = ni{net: n, sh: inj.sh, node: topology.NodeID(node), inj: inj}
		n.nis[node] = &nis[node]
	}

	// Up-link adjacency for the tree-worm climb.
	n.upAdj = make([][]portPeer, t.NumSwitches)
	n.revUp = make([][]portPeer, t.NumSwitches)
	for s := 0; s < t.NumSwitches; s++ {
		for p := 0; p < t.PortsPerSwitch; p++ {
			if rt.Dirs[s][p] != updown.DirUp {
				continue
			}
			q := int(t.Conn[s][p].Switch)
			n.upAdj[s] = append(n.upAdj[s], portPeer{sw: q, port: p})
			n.revUp[q] = append(n.revUp[q], portPeer{sw: s, port: p})
		}
	}

	// Hot-path precomputes and scratch (see routecache.go / pool.go).
	// The per-switch node lists are the routing's own, built once with
	// it. The topology never changes under a network, so reconfiguration
	// leaves them valid.
	n.nodesAt = rt.NodesBySwitch()
	n.hostLo = make([]int32, t.NumSwitches)
	n.hostHi = make([]int32, t.NumSwitches)
	for s := 0; s < t.NumSwitches; s++ {
		nodes := n.nodesAt[s]
		if len(nodes) == 0 {
			n.hostLo[s], n.hostHi[s] = 0, -1
			continue
		}
		lo, hi := nodes[0], nodes[len(nodes)-1]
		if int(hi)-int(lo)+1 == len(nodes) {
			// NodesBySwitch lists ids ascending, so first==min and
			// last==max; an exact span means the attachment is contiguous.
			n.hostLo[s], n.hostHi[s] = int32(lo), int32(hi)
		} else {
			n.hostLo[s], n.hostHi[s] = -1, -2
		}
	}
	n.rebuildDownPorts()
	n.reclaimAfter = n.reclaimQuarantine()

	if err := n.applyOptions(&o); err != nil {
		return nil, err
	}
	return n, nil
}

// localIntersects reports whether d contains a host attached to switch s
// — planTree's local-delivery gate, formerly Intersects against a
// per-switch localNodes bit string. Same predicate, no O(S×N) table.
func (n *Network) localIntersects(d dset, s topology.SwitchID) bool {
	lo, hi := n.hostLo[s], n.hostHi[s]
	if lo >= 0 {
		return lo <= hi && d.anyInRange(int(lo), int(hi))
	}
	for _, node := range n.nodesAt[s] {
		if d.contains(int(node)) {
			return true
		}
	}
	return false
}

// rebuildDownPorts refreshes the per-switch down-port lists from the
// current routing tables (New and every table swap).
func (n *Network) rebuildDownPorts() {
	if n.downPorts == nil {
		n.downPorts = make([][]int, n.topo.NumSwitches)
	}
	for s := 0; s < n.topo.NumSwitches; s++ {
		n.downPorts[s] = n.rt.DownPorts(topology.SwitchID(s))
	}
}

// Topology returns the simulated topology.
func (n *Network) Topology() *topology.Topology { return n.topo }

// Routing returns the up*/down* state the network routes with.
func (n *Network) Routing() *updown.Routing { return n.rt }

// Params returns the network's timing parameters.
func (n *Network) Params() Params { return n.params }

// Now returns the current simulation time.
func (n *Network) Now() event.Time { return n.nowAt() }

// Stats returns a snapshot of the conservation counters. Under the
// parallel engine the per-shard instances are merged on read (only
// between windows — Drain's coordinator context — is the view
// consistent).
func (n *Network) Stats() Stats {
	if n.fset == nil {
		return n.stats
	}
	out := n.stats
	for _, sh := range n.shs {
		out.add(sh.stats)
	}
	return out
}

// add accumulates o's counters into s (fast-mode per-shard merge).
func (s *Stats) add(o *Stats) {
	s.WormsCreated += o.WormsCreated
	s.PacketsInjected += o.PacketsInjected
	s.FlitHops += o.FlitHops
	s.FlitsDelivered += o.FlitsDelivered
	s.PacketsAtNI += o.PacketsAtNI
	s.PacketsToHost += o.PacketsToHost
	s.MessagesSent += o.MessagesSent
	s.MessagesDone += o.MessagesDone
	s.FlitsDropped += o.FlitsDropped
	s.WormsKilled += o.WormsKilled
	s.DestsFailed += o.DestsFailed
	s.Reconfigs += o.Reconfigs
	s.MembershipEvents += o.MembershipEvents
	s.StaleDeliveries += o.StaleDeliveries
	s.MissedDeliveries += o.MissedDeliveries
}

// Outstanding returns the number of in-flight messages.
func (n *Network) Outstanding() int { return int(n.outstanding.Load()) }

// EventsProcessed returns the total number of discrete events the
// network's scheduler has executed — the denominator of the events/sec
// throughput metric the perf benchmarks report.
func (n *Network) EventsProcessed() uint64 {
	if n.lanes != nil {
		return n.lanes.Processed()
	}
	if n.fset != nil {
		return n.fset.Processed()
	}
	return n.queue.Processed()
}

// Schedule runs fn at absolute simulation time t (for traffic generators).
func (n *Network) Schedule(t event.Time, fn func()) { n.schedAt(t, fn) }

// Send schedules a multicast described by plan carrying flits payload flits,
// initiated at time at. onComplete (optional) fires when the last
// destination's host has the message.
func (n *Network) Send(plan *Plan, flits int, at event.Time, onComplete func(*Message)) (*Message, error) {
	if err := plan.Validate(n.topo.NumNodes, n.topo.NumSwitches); err != nil {
		return nil, err
	}
	if flits <= 0 {
		return nil, fmt.Errorf("sim: message length %d", flits)
	}
	if at < n.nowAt() {
		return nil, fmt.Errorf("sim: send scheduled in the past")
	}
	if n.fset != nil {
		if err := n.validateFastPlan(plan, onComplete); err != nil {
			return nil, err
		}
	}
	m := &Message{
		ID:         n.nextMsgID,
		Plan:       plan,
		Flits:      flits,
		Packets:    n.params.Packets(flits),
		Initiated:  at,
		DoneAt:     make(map[topology.NodeID]event.Time, len(plan.Dests)),
		remaining:  len(plan.Dests),
		onComplete: onComplete,
	}
	// All message-level events (start, per-destination completion) run
	// on the source NI's shard: Message state has a single owner.
	m.sh = n.shardOf(n.topo.NodeSwitch[plan.Source])
	n.nextMsgID++
	n.outstanding.Add(1)
	n.stats.MessagesSent++
	m.sh.post(at, evMsgStart, m, 0)
	if n.obsRec != nil {
		n.obsArm()
	}
	return m, nil
}

// validateFastPlan refuses plan shapes the parallel engine cannot run:
// secondary host sends execute on arbitrary destination shards and
// would mutate NI state cross-shard, and completion callbacks would run
// on a shard worker against caller state. Both work fine on the serial
// engines.
func (n *Network) validateFastPlan(plan *Plan, onComplete func(*Message)) error {
	if onComplete != nil {
		return &FastModeError{Feature: "Send with an onComplete callback"}
	}
	for node := range plan.HostSends {
		if node != plan.Source {
			return &FastModeError{Feature: "secondary-source host sends (Plan.HostSends at a non-source node)"}
		}
	}
	return nil
}

// msgStart fires at a message's initiation time (the evMsgStart handler):
// the source host begins its sends.
func (n *Network) msgStart(m *Message) {
	src := n.nis[m.Plan.Source]
	if m.Plan.NITree != nil {
		src.hostSend(m, nil)
		return
	}
	for i := range m.Plan.HostSends[m.Plan.Source] {
		src.hostSend(m, &m.Plan.HostSends[m.Plan.Source][i])
	}
}

// StuckWorm is one worm the stall watchdog found resident in an input
// buffer when the simulation stopped making progress.
type StuckWorm struct {
	Worm    int64
	Msg     int64
	Switch  topology.SwitchID
	Port    int
	Arrived int // flits that reached the buffer
	Len     int // the worm's full stream length
	Routed  bool
}

// HeldPort is one output port the stall watchdog found allocated, with
// the holding worm and the number of queued waiters.
type HeldPort struct {
	Switch  topology.SwitchID
	Port    int
	Worm    int64
	Waiters int
}

// StallError is the progress watchdog's structured report: the
// simulation went StallCycles (or ran out of events entirely —
// QueueEmpty) without a single flit movement or control-plane step while
// messages were still outstanding. Stuck and Held name the wedged worms
// and the ports they are fighting over.
type StallError struct {
	At          event.Time
	Outstanding int
	QueueEmpty  bool
	Stuck       []StuckWorm
	Held        []HeldPort
}

func (e *StallError) Error() string {
	cause := "no flit progress"
	if e.QueueEmpty {
		cause = "no runnable events"
	}
	s := fmt.Sprintf("sim: stall: %s at t=%d with %d messages outstanding; %d stuck worms, %d held ports",
		cause, e.At, e.Outstanding, len(e.Stuck), len(e.Held))
	const cap = 8
	for i, w := range e.Stuck {
		if i == cap {
			s += fmt.Sprintf("\n  ... %d more stuck worms", len(e.Stuck)-cap)
			break
		}
		s += fmt.Sprintf("\n  worm %d (msg %d) at switch %d port %d: %d/%d flits, routed=%v",
			w.Worm, w.Msg, w.Switch, w.Port, w.Arrived, w.Len, w.Routed)
	}
	for i, h := range e.Held {
		if i == cap {
			s += fmt.Sprintf("\n  ... %d more held ports", len(e.Held)-cap)
			break
		}
		s += fmt.Sprintf("\n  port %d/%d held by worm %d with %d waiters", h.Switch, h.Port, h.Worm, h.Waiters)
	}
	return s
}

// stallReport assembles the watchdog's structured stall report from the
// live switch state.
func (n *Network) stallReport(queueEmpty bool) *StallError {
	e := &StallError{At: n.nowAt(), Outstanding: int(n.outstanding.Load()), QueueEmpty: queueEmpty}
	for s, st := range n.switches {
		for p, b := range st.inBufs {
			if b == nil {
				continue
			}
			for _, o := range b.occupants {
				e.Stuck = append(e.Stuck, StuckWorm{
					Worm: o.w.id, Msg: o.w.msg.ID,
					Switch: topology.SwitchID(s), Port: p,
					Arrived: o.arrived, Len: o.w.len, Routed: o.routed,
				})
			}
		}
		for p, op := range st.outPorts {
			if op == nil || op.holder == nil {
				continue
			}
			waiters := 0
			for _, req := range op.queue {
				if !req.granted {
					waiters++
				}
			}
			e.Held = append(e.Held, HeldPort{
				Switch: topology.SwitchID(s), Port: p,
				Worm: op.holder.w.id, Waiters: waiters,
			})
		}
	}
	return e
}

// Drain runs the simulation until all in-flight work completes. maxEvents
// (0 = a generous default) bounds runaway simulations.
//
// Termination diagnostics: if a routing invariant was violated on a
// fault-free network Drain returns the recorded *InvariantError; if the
// event queue empties with messages outstanding, or the progress watchdog
// sees no flit movement (and no control-plane step) for
// Params.StallCycles while work is outstanding, Drain returns a
// *StallError naming the stuck worms and held ports.
func (n *Network) Drain(maxEvents uint64) error {
	n.enterRun()
	defer n.exitRun()
	if maxEvents == 0 {
		maxEvents = 1 << 34
	}
	if n.fset != nil {
		return n.drainFast(maxEvents)
	}
	watch := n.params.StallCycles
	lastSig := int64(-1)
	var lastAt event.Time
	for i := uint64(0); i < maxEvents; i++ {
		if !n.engineStep() {
			if n.outstanding.Load() > 0 {
				return n.stallReport(true)
			}
			return nil
		}
		if n.invariant != nil {
			return n.invariant
		}
		if n.outstanding.Load() == 0 && n.queueLen() == 0 {
			return nil
		}
		if watch > 0 && n.outstanding.Load() > 0 {
			sig := n.stats.FlitHops + n.progress
			now := n.nowAt()
			if sig != lastSig {
				lastSig = sig
				lastAt = now
			} else if now-lastAt >= watch {
				return n.stallReport(false)
			}
		}
	}
	return fmt.Errorf("sim: event budget %d exhausted at t=%d (%d outstanding)", maxEvents, n.nowAt(), n.outstanding.Load())
}

// enterRun asserts the single-goroutine contract on event-loop entry: a
// Network, its event loop, and every callback the loop fires (message
// completion hooks, scheduled arrival closures) all run on the one
// goroutine that entered Drain or RunUntil. Captured variables in those
// callbacks (e.g. traffic.RunLoadOn's latency slice and error slot) are
// therefore safe without locks. A parallel harness may only parallelize
// across Networks, never within one; concurrent entry is a programming
// error and panics rather than silently corrupting simulator state.
func (n *Network) enterRun() {
	if !n.running.CompareAndSwap(false, true) {
		panic("sim: concurrent use of Network: the event loop and its callbacks are single-goroutine; parallelize across networks, never within one")
	}
}

// exitRun releases the event-loop entry guard.
func (n *Network) exitRun() { n.running.Store(false) }

// RunUntil advances the simulation clock to limit, executing all events due
// by then (open-loop load experiments use this).
func (n *Network) RunUntil(limit event.Time) {
	n.enterRun()
	defer n.exitRun()
	if n.lanes != nil {
		n.lanes.RunUntil(limit)
		return
	}
	if n.fset != nil {
		// The parallel engine advances in whole windows; events inside
		// the window that straddles limit run with it (open-loop drivers
		// that need exact stopping points use a serial engine).
		n.fset.Start()
		defer n.fset.Stop()
		for {
			t, ok := n.fset.NextTime()
			if !ok || t > limit {
				return
			}
			if _, _, err := n.fset.Window(); err != nil {
				panic(err)
			}
		}
	}
	n.queue.RunUntil(limit)
}

// RunSingle sends one multicast at the current time, drains the network,
// and returns the completed message. It is the primitive behind all
// single-multicast latency experiments.
func (n *Network) RunSingle(plan *Plan, flits int) (*Message, error) {
	m, err := n.Send(plan, flits, n.nowAt(), nil)
	if err != nil {
		return nil, err
	}
	if err := n.Drain(0); err != nil {
		return nil, err
	}
	return m, nil
}

// ChannelUse is one channel's carried-flit count, for utilization studies.
type ChannelUse struct {
	Label string
	Flits int64
}

// ChannelUsage returns every channel's carried flits, busiest first. Divide
// by elapsed cycles for utilization (each channel carries 1 flit/cycle).
func (n *Network) ChannelUsage() []ChannelUse {
	var out []ChannelUse
	add := func(ch *channel) {
		if ch != nil {
			out = append(out, ChannelUse{Label: ch.label(), Flits: ch.busyFlits})
		}
	}
	for _, st := range n.switches {
		for _, op := range st.outPorts {
			if op != nil {
				add(op.ch)
			}
		}
	}
	for _, x := range n.nis {
		add(x.inj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flits > out[j].Flits })
	return out
}

// CheckConservation verifies flit/packet/message accounting invariants on
// an idle network and returns a descriptive error on violation.
func (n *Network) CheckConservation() error {
	if v := n.outstanding.Load(); v != 0 {
		return fmt.Errorf("sim: conservation checked with %d messages in flight", v)
	}
	s := n.Stats()
	if s.MessagesSent != s.MessagesDone {
		return fmt.Errorf("sim: %d messages sent but %d completed", s.MessagesSent, s.MessagesDone)
	}
	if s.PacketsAtNI != s.PacketsToHost {
		return fmt.Errorf("sim: %d packets at NIs but %d reached hosts", s.PacketsAtNI, s.PacketsToHost)
	}
	for _, x := range n.nis {
		if len(x.rxFlits) != 0 || len(x.rxMsgs) != 0 || len(x.rxHeld) != 0 || len(x.ready) != 0 || x.streaming {
			return fmt.Errorf("sim: NI %d left with residual state", x.node)
		}
	}
	for s2, st := range n.switches {
		for p, b := range st.inBufs {
			if b != nil && (b.used != 0 || len(b.occupants) != 0) {
				return fmt.Errorf("sim: buffer %d/%d not empty after drain", s2, p)
			}
		}
		for p, op := range st.outPorts {
			if op != nil && (op.holder != nil || len(op.queue) != 0) {
				return fmt.Errorf("sim: port %d/%d still allocated after drain", s2, p)
			}
		}
	}
	return nil
}
