package sim

import (
	"fmt"
	"hash/fnv"
	"io"

	"mcastsim/internal/event"
	"mcastsim/internal/snap"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// This file implements quiescent-point checkpoint/restore: serializing a
// Network's enumerable state to a compact, versioned binary snapshot and
// rebuilding an identical network from it (see DESIGN.md §19).
//
// The model is checkpointable exactly at quiescence: no message in
// flight, every switch buffer empty, every port released, every NI idle.
// At such a point the physical state of a network equals a freshly
// constructed one — channels hold full credits, line-free horizons are
// in the past — so the snapshot only needs the state that diverged from
// construction: clocks and counters, the arbitration RNG stream, fault
// masks and the routing swap that last reconfiguration performed, group
// membership, and the pending control-plane events (scheduled faults,
// membership changes, reconfiguration timers, retry timeouts). Restoring
// a snapshot into a virgin network of the same shape then continues the
// run with byte-identical traces, stats and tables relative to an
// uninterrupted execution, under any serial engine and any serial shard
// count.
//
// Pending events are serializable only when their payload is plain data.
// The allowed kinds are evFaultApply, evMembership and evReconfig
// (fixed-shape records re-allocated at restore), plus evMsgTimeout and
// evReclaim for completed work: a stale timeout's message is Done (the
// handler no-ops) and a reclaim's branch recycles into the pool, but
// both still advance the clock and the processed-event count when a
// later Drain pops them, so they are restored as placeholder records
// that reproduce exactly that. A pending evSched (an arbitrary driver
// closure) or any hot-path event makes the network non-quiescent and
// Checkpoint refuses with a *CheckpointBusyError.

// snapMagic and snapVersion head every network snapshot. Bump the
// version on any format change; Restore fails loudly on mismatch.
var snapMagic = [4]byte{'M', 'S', 'N', 'P'}

const snapVersion uint16 = 1

// Section tags of the snapshot body, in writing order.
const (
	secFingerprint uint8 = 1
	secClock       uint8 = 2
	secStats       uint8 = 3
	secRNG         uint8 = 4
	secFaults      uint8 = 5
	secGroups      uint8 = 6
	secPending     uint8 = 7
)

// CheckpointBusyError reports a Checkpoint attempt on a network that is
// not at a serializable quiescent point.
type CheckpointBusyError struct {
	At     event.Time
	Reason string
}

func (e *CheckpointBusyError) Error() string {
	return fmt.Sprintf("sim: checkpoint at t=%d refused: %s", e.At, e.Reason)
}

// SnapshotMismatchError reports a Restore into a network whose shape
// (topology, parameters, routing options, set representation) differs
// from the one the snapshot was taken on.
type SnapshotMismatchError struct {
	Field string
	Got   string
	Want  string
}

func (e *SnapshotMismatchError) Error() string {
	return fmt.Sprintf("sim: snapshot mismatch on %s: network has %s, snapshot was taken with %s", e.Field, e.Got, e.Want)
}

// kindName labels an event kind in diagnostics.
func kindName(k event.Kind) string {
	switch k {
	case evPump:
		return "evPump"
	case evDeliver:
		return "evDeliver"
	case evCredit:
		return "evCredit"
	case evRoute:
		return "evRoute"
	case evTail:
		return "evTail"
	case evMsgStart:
		return "evMsgStart"
	case evMsgTimeout:
		return "evMsgTimeout"
	case evReconfig:
		return "evReconfig"
	case evFaultApply:
		return "evFaultApply"
	case evSendSoft:
		return "evSendSoft"
	case evSendDMA:
		return "evSendDMA"
	case evNICharged:
		return "evNICharged"
	case evNIRecvProc:
		return "evNIRecvProc"
	case evNIRecvDMA:
		return "evNIRecvDMA"
	case evDestDone:
		return "evDestDone"
	case evReclaim:
		return "evReclaim"
	case evObsFlush:
		return "evObsFlush"
	case evMembership:
		return "evMembership"
	case evSched:
		return "evSched"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// --- fingerprint ---

// fingerprint digests the network shape a snapshot is only valid for:
// topology wiring, timing parameters, the requested routing options, and
// the destination-set representation. The shard count is deliberately
// excluded — serial equivalence makes a snapshot portable across serial
// shard counts.
type fingerprint struct {
	topo    uint64
	params  uint64
	routing uint64
	sparse  bool
}

func (n *Network) fingerprint() fingerprint {
	return fingerprint{
		topo:    topoHash(n.topo),
		params:  paramsHash(n.params),
		routing: routingHash(n.origOpts),
		sparse:  n.sparse,
	}
}

func topoHash(t *topology.Topology) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	word(int64(t.NumSwitches))
	word(int64(t.PortsPerSwitch))
	word(int64(t.NumNodes))
	for s := 0; s < t.NumSwitches; s++ {
		for p := 0; p < t.PortsPerSwitch; p++ {
			e := t.Conn[s][p]
			word(int64(e.Kind)<<48 | int64(e.Switch)<<24 | int64(e.Port)<<8 ^ int64(e.Node))
		}
	}
	for _, lk := range t.Links {
		word(int64(lk.A)<<40 | int64(lk.APort)<<32 | int64(lk.B)<<8 | int64(lk.BPort))
	}
	return h.Sum64()
}

func paramsHash(p Params) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", p)
	return h.Sum64()
}

func routingHash(o updown.Options) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%v/%d/%v/%v", o.Root, o.CenterRoot, o.Tree, o.DeadLinks, o.DeadSwitches)
	return h.Sum64()
}

// --- quiescence ---

// snapshotPendingEvents enumerates the pending schedule in realized
// dispatch order under either serial engine.
func (n *Network) snapshotPendingEvents() []event.PendingEvent {
	if n.lanes != nil {
		return n.lanes.SnapshotPending()
	}
	return n.queue.SnapshotPending()
}

// checkQuiescent verifies the network is at a serializable quiescent
// point and returns the classified pending events on success.
func (n *Network) checkQuiescent() ([]event.PendingEvent, error) {
	now := n.nowAt()
	busy := func(format string, args ...any) error {
		return &CheckpointBusyError{At: now, Reason: fmt.Sprintf(format, args...)}
	}
	if n.running.Load() {
		return nil, busy("event loop is running")
	}
	if v := n.outstanding.Load(); v != 0 {
		return nil, busy("%d messages in flight", v)
	}
	if n.invariant != nil {
		return nil, busy("routing invariant violation recorded: %v", n.invariant)
	}
	for _, x := range n.nis {
		if len(x.rxFlits) != 0 || len(x.rxMsgs) != 0 || len(x.rxHeld) != 0 ||
			len(x.ready) != 0 || len(x.injWait) != 0 || x.streaming {
			return nil, busy("NI %d has residual send/receive state", x.node)
		}
		if x.hostFree > now || x.niFree > now || x.busFree > now {
			return nil, busy("NI %d resources busy past t=%d", x.node, now)
		}
	}
	for s, st := range n.switches {
		for p, b := range st.inBufs {
			if b != nil && (b.used != 0 || len(b.occupants) != 0) {
				return nil, busy("buffer %d/%d not empty", s, p)
			}
		}
		for p, op := range st.outPorts {
			if op == nil {
				continue
			}
			if op.holder != nil || len(op.queue) != 0 {
				return nil, busy("port %d/%d allocated", s, p)
			}
			if ch := op.ch; ch != nil && (ch.sender != nil || ch.lineFree > now) {
				return nil, busy("channel %s busy", ch.label())
			}
		}
	}
	for _, x := range n.nis {
		if x.inj.sender != nil || x.inj.lineFree > now {
			return nil, busy("injection line of node %d busy", x.node)
		}
	}
	pending := n.snapshotPendingEvents()
	for _, p := range pending {
		switch p.Kind {
		case evFaultApply, evMembership, evReconfig, evReclaim:
			// Fixed-shape records or completed-work placeholders.
		case evMsgTimeout:
			if m, ok := p.Actor.(*Message); !ok || !m.Done() {
				return nil, busy("pending %s for an unfinished message", kindName(p.Kind))
			}
		default:
			return nil, busy("pending %s event at t=%d", kindName(p.Kind), p.At)
		}
	}
	return pending, nil
}

// --- checkpoint ---

// Checkpoint serializes the network's state to w. The network must be at
// a quiescent point — no message outstanding, all switch and NI
// resources idle, only reconstructible control-plane events pending —
// or a *CheckpointBusyError is returned. The parallel engine does not
// support checkpointing (its per-shard serialization is not the serial
// order the snapshot format captures). Checkpoint does not mutate the
// network; the run may simply continue afterwards.
func (n *Network) Checkpoint(wr io.Writer) error {
	if err := n.fastModeCheck("checkpoint/restore (Checkpoint)"); err != nil {
		return err
	}
	pending, err := n.checkQuiescent()
	if err != nil {
		return err
	}
	fp := n.fingerprint()
	w := snap.NewWriter(wr, snapMagic, snapVersion)
	w.Section(secFingerprint, func(w *snap.Writer) {
		w.U64(fp.topo)
		w.U64(fp.params)
		w.U64(fp.routing)
		w.Bool(fp.sparse)
		w.Int(n.topo.NumNodes)
		w.Int(n.topo.NumSwitches)
		w.Int(len(n.topo.Links))
	})
	w.Section(secClock, func(w *snap.Writer) {
		w.Varint(int64(n.nowAt()))
		w.U64(n.EventsProcessed())
		w.Varint(n.nextWormID)
		w.Varint(n.nextMsgID)
		w.Varint(n.progress)
		w.Int(n.reconfigEpoch)
		w.Int(n.routingEpoch)
		w.Bool(n.faulted)
		w.Bool(n.partitioned)
	})
	w.Section(secStats, func(w *snap.Writer) {
		s := n.stats
		for _, v := range []int64{
			s.WormsCreated, s.PacketsInjected, s.FlitHops, s.FlitsDelivered,
			s.PacketsAtNI, s.PacketsToHost, s.MessagesSent, s.MessagesDone,
			s.FlitsDropped, s.WormsKilled, s.DestsFailed, s.Reconfigs,
			s.MembershipEvents, s.StaleDeliveries, s.MissedDeliveries,
		} {
			w.Varint(v)
		}
	})
	w.Section(secRNG, func(w *snap.Writer) {
		for _, v := range n.arb.State() {
			w.U64(v)
		}
	})
	w.Section(secFaults, func(w *snap.Writer) {
		w.Bitmap(n.deadLink)
		w.Bitmap(n.deadSwitch)
		w.Bool(n.lastSwapOpts != nil)
		if o := n.lastSwapOpts; o != nil {
			w.Int(int(o.Root))
			w.Bool(o.CenterRoot)
			w.U8(uint8(o.Tree))
			w.Ints(o.DeadLinks)
			ds := make([]int, len(o.DeadSwitches))
			for i, s := range o.DeadSwitches {
				ds[i] = int(s)
			}
			w.Ints(ds)
		}
	})
	w.Section(secGroups, func(w *snap.Writer) {
		w.Int(len(n.groups))
		for _, g := range n.groups {
			w.String(g.name)
			w.Int(g.epoch)
			w.Varint(g.joins)
			w.Varint(g.leaves)
			w.Varint(g.stale)
			w.Varint(g.missed)
			w.Varint(g.repairs)
			w.Varint(g.repairEdges)
			w.Varint(int64(g.repairCycles))
			members := make([]int, 0, g.members.Count())
			g.members.ForEach(func(i int) bool {
				members = append(members, i)
				return true
			})
			w.Ints(members)
		}
	})
	w.Section(secPending, func(w *snap.Writer) {
		w.Int(len(pending))
		for _, p := range pending {
			w.U8(uint8(p.Kind))
			w.Varint(int64(p.At))
			switch p.Kind {
			case evFaultApply:
				fe := p.Actor.(*FaultEvent)
				w.U8(uint8(fe.Kind))
				w.Int(fe.Link)
				w.Int(int(fe.Switch))
			case evMembership:
				me := p.Actor.(*MembershipEvent)
				w.Int(int(me.Group))
				w.Int(int(me.Node))
				w.U8(uint8(me.Kind))
			case evReconfig:
				w.Varint(p.Arg)
			}
		}
	})
	return w.Close()
}

// --- restore ---

// netSnapshot is the fully decoded snapshot, staged before any network
// state is touched so a corrupt stream can never leave a partial
// restore.
type netSnapshot struct {
	fp          fingerprint
	numNodes    int
	numSwitches int
	numLinks    int

	now           event.Time
	processed     uint64
	nextWormID    int64
	nextMsgID     int64
	progress      int64
	reconfigEpoch int
	routingEpoch  int
	faulted       bool
	partitioned   bool

	stats    Stats
	rngState [4]uint64

	deadLink   []bool
	deadSwitch []bool
	swapped    bool
	swapOpts   updown.Options

	groups  []groupSnapshot
	pending []pendingSnapshot
}

type groupSnapshot struct {
	name         string
	epoch        int
	joins        int64
	leaves       int64
	stale        int64
	missed       int64
	repairs      int64
	repairEdges  int64
	repairCycles event.Time
	members      []int
}

type pendingSnapshot struct {
	kind   event.Kind
	at     event.Time
	fault  FaultEvent
	member MembershipEvent
	arg    int64
}

func decodeSnapshot(rd io.Reader) (*netSnapshot, error) {
	r, err := snap.NewReader(rd, snapMagic, snapVersion)
	if err != nil {
		return nil, err
	}
	s := &netSnapshot{}
	r.Section(secFingerprint, func(r *snap.Reader) {
		s.fp.topo = r.U64()
		s.fp.params = r.U64()
		s.fp.routing = r.U64()
		s.fp.sparse = r.Bool()
		s.numNodes = r.Int()
		s.numSwitches = r.Int()
		s.numLinks = r.Int()
	})
	r.Section(secClock, func(r *snap.Reader) {
		s.now = event.Time(r.Varint())
		s.processed = r.U64()
		s.nextWormID = r.Varint()
		s.nextMsgID = r.Varint()
		s.progress = r.Varint()
		s.reconfigEpoch = r.Int()
		s.routingEpoch = r.Int()
		s.faulted = r.Bool()
		s.partitioned = r.Bool()
	})
	r.Section(secStats, func(r *snap.Reader) {
		st := &s.stats
		for _, f := range []*int64{
			&st.WormsCreated, &st.PacketsInjected, &st.FlitHops, &st.FlitsDelivered,
			&st.PacketsAtNI, &st.PacketsToHost, &st.MessagesSent, &st.MessagesDone,
			&st.FlitsDropped, &st.WormsKilled, &st.DestsFailed, &st.Reconfigs,
			&st.MembershipEvents, &st.StaleDeliveries, &st.MissedDeliveries,
		} {
			*f = r.Varint()
		}
	})
	r.Section(secRNG, func(r *snap.Reader) {
		for i := range s.rngState {
			s.rngState[i] = r.U64()
		}
	})
	r.Section(secFaults, func(r *snap.Reader) {
		s.deadLink = r.Bitmap()
		s.deadSwitch = r.Bitmap()
		s.swapped = r.Bool()
		if s.swapped {
			s.swapOpts.Root = topology.SwitchID(r.Int())
			s.swapOpts.CenterRoot = r.Bool()
			s.swapOpts.Tree = updown.TreePolicy(r.U8())
			s.swapOpts.DeadLinks = r.Ints()
			for _, d := range r.Ints() {
				s.swapOpts.DeadSwitches = append(s.swapOpts.DeadSwitches, topology.SwitchID(d))
			}
		}
	})
	r.Section(secGroups, func(r *snap.Reader) {
		count := r.Int()
		if count < 0 || count > s.numNodes+1 {
			r.Fail("groups", fmt.Errorf("implausible group count %d", count))
			return
		}
		for i := 0; i < count && r.Err() == nil; i++ {
			g := groupSnapshot{
				name:   r.String(),
				epoch:  r.Int(),
				joins:  r.Varint(),
				leaves: r.Varint(),
				stale:  r.Varint(),
				missed: r.Varint(),
			}
			g.repairs = r.Varint()
			g.repairEdges = r.Varint()
			g.repairCycles = event.Time(r.Varint())
			g.members = r.Ints()
			s.groups = append(s.groups, g)
		}
	})
	r.Section(secPending, func(r *snap.Reader) {
		count := r.Int()
		if count < 0 {
			r.Fail("pending", fmt.Errorf("negative pending count %d", count))
			return
		}
		for i := 0; i < count && r.Err() == nil; i++ {
			p := pendingSnapshot{kind: event.Kind(r.U8()), at: event.Time(r.Varint())}
			switch p.kind {
			case evFaultApply:
				p.fault = FaultEvent{
					At:     p.at,
					Kind:   FaultKind(r.U8()),
					Link:   r.Int(),
					Switch: topology.SwitchID(r.Int()),
				}
			case evMembership:
				p.member = MembershipEvent{
					At:    p.at,
					Group: GroupID(r.Int()),
					Node:  topology.NodeID(r.Int()),
					Kind:  MembershipKind(r.U8()),
				}
			case evReconfig:
				p.arg = r.Varint()
			case evMsgTimeout, evReclaim:
			default:
				r.Fail("pending", fmt.Errorf("unserializable pending kind %s", kindName(p.kind)))
				return
			}
			s.pending = append(s.pending, p)
		}
	})
	if err := r.ExpectEOF(); err != nil {
		return nil, err
	}
	return s, nil
}

// validate cross-checks the decoded snapshot against the restore target.
func (s *netSnapshot) validate(n *Network) error {
	fp := n.fingerprint()
	mismatch := func(field string, got, want any) error {
		return &SnapshotMismatchError{Field: field, Got: fmt.Sprint(got), Want: fmt.Sprint(want)}
	}
	if s.numNodes != n.topo.NumNodes || s.numSwitches != n.topo.NumSwitches || s.numLinks != len(n.topo.Links) {
		return mismatch("topology shape",
			fmt.Sprintf("%d nodes/%d switches/%d links", n.topo.NumNodes, n.topo.NumSwitches, len(n.topo.Links)),
			fmt.Sprintf("%d nodes/%d switches/%d links", s.numNodes, s.numSwitches, s.numLinks))
	}
	if s.fp.topo != fp.topo {
		return mismatch("topology wiring digest", fp.topo, s.fp.topo)
	}
	if s.fp.params != fp.params {
		return mismatch("params digest", fp.params, s.fp.params)
	}
	if s.fp.routing != fp.routing {
		return mismatch("routing options digest", fp.routing, s.fp.routing)
	}
	if s.fp.sparse != fp.sparse {
		return mismatch("destination-set representation", fp.sparse, s.fp.sparse)
	}
	if s.deadLink != nil && len(s.deadLink) != len(n.topo.Links) {
		return mismatch("dead-link mask length", len(n.topo.Links), len(s.deadLink))
	}
	if s.deadSwitch != nil && len(s.deadSwitch) != n.topo.NumSwitches {
		return mismatch("dead-switch mask length", n.topo.NumSwitches, len(s.deadSwitch))
	}
	for gi, g := range s.groups {
		for _, m := range g.members {
			if m < 0 || m >= n.topo.NumNodes {
				return &snap.CorruptError{Context: "groups", Err: fmt.Errorf("group %d member %d out of range", gi, m)}
			}
		}
	}
	for i, p := range s.pending {
		switch p.kind {
		case evFaultApply:
			fe := p.fault
			switch fe.Kind {
			case FaultLink, RepairLink:
				if fe.Link < 0 || fe.Link >= len(n.topo.Links) {
					return &snap.CorruptError{Context: "pending", Err: fmt.Errorf("event %d: link %d out of range", i, fe.Link)}
				}
			case FaultSwitch:
				if int(fe.Switch) < 0 || int(fe.Switch) >= n.topo.NumSwitches {
					return &snap.CorruptError{Context: "pending", Err: fmt.Errorf("event %d: switch %d out of range", i, fe.Switch)}
				}
			default:
				return &snap.CorruptError{Context: "pending", Err: fmt.Errorf("event %d: unknown fault kind %d", i, fe.Kind)}
			}
		case evMembership:
			me := p.member
			if int(me.Group) < 0 || int(me.Group) >= len(s.groups) {
				return &snap.CorruptError{Context: "pending", Err: fmt.Errorf("event %d: group %d not in snapshot", i, me.Group)}
			}
			if int(me.Node) < 0 || int(me.Node) >= n.topo.NumNodes {
				return &snap.CorruptError{Context: "pending", Err: fmt.Errorf("event %d: node %d out of range", i, me.Node)}
			}
		}
	}
	return nil
}

// Restore rebuilds the network's state from a snapshot written by
// Checkpoint. The receiver must be virgin — freshly constructed over the
// same topology, parameters and routing options, with no event run, no
// message sent, no fault injected and no group registered — or an error
// is returned before anything is touched. The whole snapshot is decoded
// and validated first, so a corrupt or truncated stream can never leave
// a partially restored network.
//
// Groups are recreated from the snapshot (same IDs, names, membership
// and counters); per-group OnDelta hooks are process state and must be
// re-installed by the caller afterwards.
func (n *Network) Restore(rd io.Reader) error {
	if err := n.fastModeCheck("checkpoint/restore (Restore)"); err != nil {
		return err
	}
	if n.running.Load() {
		return fmt.Errorf("sim: Restore while the event loop is running")
	}
	if n.nowAt() != 0 || n.EventsProcessed() != 0 || n.queueLen() != 0 ||
		n.outstanding.Load() != 0 || n.nextMsgID != 0 || n.nextWormID != 0 ||
		n.faulted || n.deadLink != nil || len(n.groups) != 0 ||
		n.stats != (Stats{}) {
		return fmt.Errorf("sim: Restore requires a virgin network (construct a fresh one with New)")
	}
	s, err := decodeSnapshot(rd)
	if err != nil {
		return err
	}
	if err := s.validate(n); err != nil {
		return err
	}

	// --- apply; nothing below can fail except the routing rebuild,
	// which runs first. ---
	if s.swapped {
		rt2, err := updown.NewWithOptions(n.topo, s.swapOpts)
		if err != nil {
			return fmt.Errorf("sim: restoring reconfigured routing tables: %w", err)
		}
		n.swapRouting(rt2)
		swapped := s.swapOpts
		n.lastSwapOpts = &swapped
	}
	n.stats = s.stats
	n.nextWormID = s.nextWormID
	n.nextMsgID = s.nextMsgID
	n.progress = s.progress
	n.reconfigEpoch = s.reconfigEpoch
	n.faulted = s.faulted
	n.partitioned = s.partitioned
	n.arb.SetState(s.rngState)
	if s.deadLink != nil {
		n.ensureFaultState()
		copy(n.deadLink, s.deadLink)
		copy(n.deadSwitch, s.deadSwitch)
		n.restoreDeadTopology()
	}
	// routingEpoch last: the mask copy and table swap above bump it.
	n.routingEpoch = s.routingEpoch

	for _, gs := range s.groups {
		g, err := n.NewGroup(gs.name, nil)
		if err != nil {
			return fmt.Errorf("sim: restoring group %q: %w", gs.name, err)
		}
		for _, m := range gs.members {
			g.members.Add(m)
		}
		g.epoch = gs.epoch
		g.joins = gs.joins
		g.leaves = gs.leaves
		g.stale = gs.stale
		g.missed = gs.missed
		g.repairs = gs.repairs
		g.repairEdges = gs.repairEdges
		g.repairCycles = gs.repairCycles
	}

	// Rewind the engine to the snapshot clock, then re-post the pending
	// schedule in realized order: relative dispatch order is preserved,
	// and the re-posts draw the lowest sequence numbers — exactly the
	// ordering they had in the uninterrupted run, where they were posted
	// before any event the continuation will create.
	if n.lanes != nil {
		n.lanes.ResetTo(s.now, s.processed)
	} else {
		n.queue.ResetTo(s.now, s.processed)
	}
	for i := range s.pending {
		p := &s.pending[i]
		switch p.kind {
		case evFaultApply:
			fe := p.fault
			n.ctlPost(p.at, evFaultApply, &fe, 0)
		case evMembership:
			me := p.member
			n.ctlPost(p.at, evMembership, &me, 0)
		case evReconfig:
			n.ctlPost(p.at, evReconfig, nil, p.arg)
		case evMsgTimeout:
			// The message completed before the checkpoint: the handler
			// no-ops on a Done message, but popping the event still
			// advances the clock and the processed count exactly as the
			// stale timeout would have.
			n.ctlPost(p.at, evMsgTimeout, &Message{}, 0)
		case evReclaim:
			// The branch's work is done; only the pop itself matters.
			// A placeholder branch (holding the sole reference to a
			// placeholder worm) recycles into the pools exactly like a
			// quarantined real one.
			sh := n.sh0()
			br := sh.getBranch()
			br.done = true
			br.w = sh.getWorm()
			wormRef(br.w)
			n.ctlPost(p.at, evReclaim, br, 0)
		}
	}
	return nil
}

// restoreDeadTopology re-marks channels, ports and NIs dead from the
// restored fault masks. Structural only: the teardown work severChannel
// performs on a live network (killing worms, draining flits, tracing)
// already happened before the checkpoint, and the quiescent model state
// of a fresh network needs nothing but the flags.
func (n *Network) restoreDeadTopology() {
	markDead := func(op *outPort) {
		if op == nil {
			return
		}
		op.dead = true
		if op.ch != nil {
			op.ch.dead = true
		}
	}
	for li, dead := range n.deadLink {
		if !dead {
			continue
		}
		lk := n.topo.Links[li]
		markDead(n.switches[lk.A].outPorts[lk.APort])
		markDead(n.switches[lk.B].outPorts[lk.BPort])
	}
	t := n.topo
	for s := range n.deadSwitch {
		if !n.deadSwitch[s] {
			continue
		}
		for p := 0; p < t.PortsPerSwitch; p++ {
			switch e := t.Conn[s][p]; e.Kind {
			case topology.ToSwitch:
				markDead(n.switches[e.Switch].outPorts[e.Port])
			case topology.ToNode:
				n.nis[e.Node].inj.dead = true
			}
			markDead(n.switches[s].outPorts[p])
		}
		for _, node := range n.nodesAt[s] {
			x := n.nis[node]
			x.dead = true
			x.inj.dead = true
		}
	}
}
