package sim

import (
	"testing"

	"mcastsim/internal/event"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// twoSwitch builds the smallest interesting network: two linked switches,
// two nodes each. Node 0,1 on switch 0 (ports 2,3); node 2,3 on switch 1.
func twoSwitch(t *testing.T) *Network {
	t.Helper()
	topo, err := topology.Build(2, 4,
		[][4]int{{0, 0, 1, 0}},
		[][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(rt, DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fixtureNet builds the 8-switch irregular fixture with one node per switch.
func fixtureNet(t *testing.T, p Params) *Network {
	t.Helper()
	links := [][4]int{
		{0, 0, 1, 0}, {0, 1, 2, 0}, {1, 1, 3, 0}, {2, 1, 3, 1}, {2, 2, 4, 0},
		{3, 2, 5, 0}, {4, 1, 5, 1}, {4, 2, 6, 0}, {5, 2, 7, 0}, {6, 1, 7, 1},
	}
	nodes := make([][2]int, 8)
	for i := range nodes {
		nodes[i] = [2]int{i, 7}
	}
	topo, err := topology.Build(8, 8, links, nodes)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(rt, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustRun(t *testing.T, n *Network, plan *Plan, flits int) *Message {
	t.Helper()
	m, err := n.RunSingle(plan, flits)
	if err != nil {
		t.Fatalf("RunSingle: %v", err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	return m
}

func unicastPlan(src, dst topology.NodeID) *Plan {
	return &Plan{
		Source: src,
		Dests:  []topology.NodeID{dst},
		HostSends: map[topology.NodeID][]WormSpec{
			src: {{Kind: WormUnicast, Dest: dst}},
		},
	}
}

// analyticUnicast computes the contention-free unicast latency: host send
// overhead, DMA down, NI send processing, header latency across the path
// (injection link + (routing+crossbar+link) per switch), pipeline of the
// remaining worm flits, then NI receive processing, DMA up, host receive
// overhead. Single-packet messages only.
func analyticUnicast(p Params, switches, payload int) event.Time {
	dma := p.BusCycles(payload)
	head := p.LinkDelay + event.Time(switches)*(p.RoutingDelay+p.CrossbarDelay+p.LinkDelay)
	wormLen := event.Time(UnicastHeaderFlits + payload)
	return p.OHostSend + dma + p.ONISend + head + wormLen - 1 + p.ONIRecv + dma + p.OHostRecv
}

func TestUnicastCrossSwitchAnalytic(t *testing.T) {
	n := twoSwitch(t)
	m := mustRun(t, n, unicastPlan(0, 2), 128)
	want := analyticUnicast(n.Params(), 2, 128)
	if got := m.Latency(); got != want {
		t.Fatalf("latency = %d, want %d", got, want)
	}
}

func TestUnicastSameSwitchAnalytic(t *testing.T) {
	n := twoSwitch(t)
	m := mustRun(t, n, unicastPlan(0, 1), 128)
	want := analyticUnicast(n.Params(), 1, 128)
	if got := m.Latency(); got != want {
		t.Fatalf("latency = %d, want %d", got, want)
	}
}

func TestUnicastLongPathAnalytic(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	// Node 0 (switch 0) to node 7 (switch 7): graph distance 4, so 5
	// switches on the path; up*/down* may lengthen it, so compute from the
	// routing tables.
	rt := n.Routing()
	hops := rt.DistUp(0, 7)
	m := mustRun(t, n, unicastPlan(0, 7), 128)
	want := analyticUnicast(n.Params(), hops+1, 128)
	if got := m.Latency(); got != want {
		t.Fatalf("latency = %d, want %d (hops=%d)", got, want, hops)
	}
}

func TestUnicastShortMessage(t *testing.T) {
	n := twoSwitch(t)
	m := mustRun(t, n, unicastPlan(0, 2), 16)
	want := analyticUnicast(n.Params(), 2, 16)
	if got := m.Latency(); got != want {
		t.Fatalf("latency = %d, want %d", got, want)
	}
}

func TestMultiPacketUnicast(t *testing.T) {
	n := twoSwitch(t)
	m := mustRun(t, n, unicastPlan(0, 2), 128*3)
	if m.Packets != 3 {
		t.Fatalf("packets = %d", m.Packets)
	}
	// Packets pipeline: total must be far less than 3x the single-packet
	// latency but more than single-packet latency + 2 packets of streaming.
	single := analyticUnicast(n.Params(), 2, 128)
	got := m.Latency()
	if got <= single {
		t.Fatalf("3-packet latency %d not greater than 1-packet %d", got, single)
	}
	if got >= 3*single {
		t.Fatalf("3-packet latency %d shows no pipelining (3x single = %d)", got, 3*single)
	}
}

func TestTreeWormDeliversAll(t *testing.T) {
	n := twoSwitch(t)
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormTree, DestSet: []topology.NodeID{1, 2, 3}}},
		},
	}
	m := mustRun(t, n, plan, 128)
	if len(m.DoneAt) != 3 {
		t.Fatalf("delivered to %d destinations, want 3", len(m.DoneAt))
	}
	// One worm from the source; replication makes children but only one
	// packet stream was injected.
	if n.Stats().PacketsInjected != 1 {
		t.Fatalf("injected %d packets, want 1", n.Stats().PacketsInjected)
	}
}

func TestTreeWormSinglePhaseBeatsRelay(t *testing.T) {
	// A tree worm to 3 destinations must complete much faster than three
	// sequential unicast phases would.
	n := twoSwitch(t)
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormTree, DestSet: []topology.NodeID{1, 2, 3}}},
		},
	}
	m := mustRun(t, n, plan, 128)
	oneUnicast := analyticUnicast(n.Params(), 2, 128)
	if m.Latency() >= 2*oneUnicast {
		t.Fatalf("tree multicast %d not faster than 2 unicast phases %d", m.Latency(), 2*oneUnicast)
	}
}

func TestPathWormMultiDrop(t *testing.T) {
	n := twoSwitch(t)
	// One worm: drop at node 1 on switch 0, continue out port 0 to switch
	// 1, drop at nodes 2 and 3.
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormPath, Path: []PathSeg{
				{Switch: 0, Drops: []topology.NodeID{1}, NextPort: 0},
				{Switch: 1, Drops: []topology.NodeID{2, 3}, NextPort: -1},
			}}},
		},
	}
	m := mustRun(t, n, plan, 128)
	if len(m.DoneAt) != 3 {
		t.Fatalf("delivered to %d destinations, want 3", len(m.DoneAt))
	}
	if n.Stats().PacketsInjected != 1 {
		t.Fatalf("injected %d packets, want 1", n.Stats().PacketsInjected)
	}
	// Node 1 hears the worm before nodes 2,3 (it is an earlier drop).
	if m.DoneAt[1] > m.DoneAt[2] || m.DoneAt[1] > m.DoneAt[3] {
		t.Fatalf("drop order violated: %v", m.DoneAt)
	}
}

func TestPathWormHeaderStripping(t *testing.T) {
	// The flits delivered to the last drop exclude the stripped segment
	// fields: total flits delivered = sum over deliveries of remaining
	// stream lengths.
	n := twoSwitch(t)
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormPath, Path: []PathSeg{
				{Switch: 0, Drops: []topology.NodeID{1}, NextPort: 0},
				{Switch: 1, Drops: []topology.NodeID{2, 3}, NextPort: -1},
			}}},
		},
	}
	mustRun(t, n, plan, 128)
	seg := PathSegFlits(n.Topology().PortsPerSwitch)
	full := PathHeaderFlits(2, n.Topology().PortsPerSwitch) + 128
	// Node 1 receives full-seg (stripped once); nodes 2,3 receive
	// full-2*seg each.
	want := int64((full - seg) + 2*(full-2*seg))
	if got := n.Stats().FlitsDelivered; got != want {
		t.Fatalf("delivered %d flits, want %d", got, want)
	}
}

func TestNITreeChainForwards(t *testing.T) {
	n := twoSwitch(t)
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3},
		NITree: map[topology.NodeID][]topology.NodeID{
			0: {2},
			2: {1, 3},
		},
	}
	m := mustRun(t, n, plan, 128)
	if len(m.DoneAt) != 3 {
		t.Fatalf("delivered to %d destinations", len(m.DoneAt))
	}
	// NI forwarding at node 2 starts as soon as the packet hits its NI —
	// before node 2's host has the message — so node 1 must complete well
	// ahead of a host-driven relay over the same chain.
	n2 := twoSwitch(t)
	relay := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormUnicast, Dest: 2}},
			2: {{Kind: WormUnicast, Dest: 1}, {Kind: WormUnicast, Dest: 3}},
		},
	}
	mr := mustRun(t, n2, relay, 128)
	p := n.Params()
	// The NI forward skips node 2's host receive completion (o_r + DMA)
	// and the host send overhead (o_s) on the forwarding path.
	if m.DoneAt[1]+p.OHostSend > mr.DoneAt[1] {
		t.Fatalf("NI forwarding (%d) not clearly faster than host relay (%d)", m.DoneAt[1], mr.DoneAt[1])
	}
	if m.DoneAt[3]+p.OHostSend > mr.DoneAt[3] {
		t.Fatalf("NI forwarding (%d) not clearly faster than host relay (%d)", m.DoneAt[3], mr.DoneAt[3])
	}
}

func TestNITreeFPFSPipelinesPackets(t *testing.T) {
	// With multi-packet messages, FPFS forwarding overlaps packets across
	// tree levels: the chain 0->2->1 must beat a store-and-forward relay
	// (receive whole message at host, then send), which costs at least
	// 2 full message times.
	n := twoSwitch(t)
	const flits = 128 * 4
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{2, 1},
		NITree: map[topology.NodeID][]topology.NodeID{
			0: {2},
			2: {1},
		},
	}
	m := mustRun(t, n, plan, flits)

	n2 := twoSwitch(t)
	relay := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{2, 1},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormUnicast, Dest: 2}},
			2: {{Kind: WormUnicast, Dest: 1}},
		},
	}
	m2 := mustRun(t, n2, relay, flits)
	if m.Latency() >= m2.Latency() {
		t.Fatalf("NI FPFS chain (%d) not faster than host relay (%d)", m.Latency(), m2.Latency())
	}
}

func TestHostSendsMultiPhase(t *testing.T) {
	n := twoSwitch(t)
	// Binomial-style: 0 sends to 2; then 0 sends to 1 while 2 sends to 3.
	plan := &Plan{
		Source: 0,
		Dests:  []topology.NodeID{1, 2, 3},
		HostSends: map[topology.NodeID][]WormSpec{
			0: {{Kind: WormUnicast, Dest: 2}, {Kind: WormUnicast, Dest: 1}},
			2: {{Kind: WormUnicast, Dest: 3}},
		},
	}
	m := mustRun(t, n, plan, 128)
	// Node 3's completion must come after node 2's (data dependency).
	if m.DoneAt[3] <= m.DoneAt[2] {
		t.Fatalf("phase order violated: %v", m.DoneAt)
	}
}

func TestTreeWormOnIrregularFixture(t *testing.T) {
	n := fixtureNet(t, DefaultParams())
	dests := []topology.NodeID{1, 2, 3, 4, 5, 6, 7}
	plan := &Plan{
		Source:    0,
		Dests:     dests,
		HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormTree, DestSet: dests}}},
	}
	m := mustRun(t, n, plan, 128)
	if len(m.DoneAt) != 7 {
		t.Fatalf("delivered %d, want 7", len(m.DoneAt))
	}
}

func TestTreeWormFromLeafClimbs(t *testing.T) {
	// Source at the deepest switch (node 7 on switch 7) multicasting to
	// nodes on disjoint subtrees forces a climb before replication.
	n := fixtureNet(t, DefaultParams())
	dests := []topology.NodeID{0, 1, 2}
	plan := &Plan{
		Source:    7,
		Dests:     dests,
		HostSends: map[topology.NodeID][]WormSpec{7: {{Kind: WormTree, DestSet: dests}}},
	}
	m := mustRun(t, n, plan, 128)
	if len(m.DoneAt) != 3 {
		t.Fatalf("delivered %d, want 3", len(m.DoneAt))
	}
}

func TestEarlyTreeBranchAblation(t *testing.T) {
	p := DefaultParams()
	p.EarlyTreeBranch = true
	n := fixtureNet(t, p)
	dests := []topology.NodeID{0, 1, 2, 3, 4, 5, 6}
	plan := &Plan{
		Source:    7,
		Dests:     dests,
		HostSends: map[topology.NodeID][]WormSpec{7: {{Kind: WormTree, DestSet: dests}}},
	}
	m := mustRun(t, n, plan, 128)
	if len(m.DoneAt) != 7 {
		t.Fatalf("delivered %d, want 7", len(m.DoneAt))
	}
}

func TestContentionSerializesSameDest(t *testing.T) {
	// Two messages to the same destination from different sources must
	// serialize on the destination's ejection link / NI.
	n := twoSwitch(t)
	m1, err := n.Send(unicastPlan(0, 2), 128, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := n.Send(unicastPlan(1, 2), 128, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	solo := analyticUnicast(n.Params(), 2, 128)
	l1, l2 := m1.Latency(), m2.Latency()
	fast, slow := l1, l2
	if fast > slow {
		fast, slow = slow, fast
	}
	if fast > solo+10 {
		t.Fatalf("faster of two contending messages (%d) far above solo latency (%d)", fast, solo)
	}
	if slow <= solo {
		t.Fatalf("contention had no effect: slow=%d solo=%d", slow, solo)
	}
}

func TestBackpressureDoesNotDeadlock(t *testing.T) {
	// Saturate the single inter-switch link with many simultaneous
	// messages in both directions; everything must drain.
	n := twoSwitch(t)
	for i := 0; i < 10; i++ {
		if _, err := n.Send(unicastPlan(0, 2), 512, event.Time(i*7), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Send(unicastPlan(3, 1), 512, event.Time(i*11), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestSendValidationErrors(t *testing.T) {
	n := twoSwitch(t)
	cases := map[string]*Plan{
		"no dests":        {Source: 0, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormUnicast, Dest: 1}}}},
		"self dest":       {Source: 0, Dests: []topology.NodeID{0}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormUnicast, Dest: 0}}}},
		"both modes":      {Source: 0, Dests: []topology.NodeID{1}, NITree: map[topology.NodeID][]topology.NodeID{0: {1}}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormUnicast, Dest: 1}}}},
		"no source send":  {Source: 0, Dests: []topology.NodeID{1}, HostSends: map[topology.NodeID][]WormSpec{}},
		"double delivery": {Source: 0, Dests: []topology.NodeID{1}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormUnicast, Dest: 1}, {Kind: WormUnicast, Dest: 1}}}},
		"missing dest":    {Source: 0, Dests: []topology.NodeID{1, 2}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormUnicast, Dest: 1}}}},
		"non-dest deliv":  {Source: 0, Dests: []topology.NodeID{1}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormUnicast, Dest: 1}, {Kind: WormUnicast, Dest: 2}}}},
		"stray sender":    {Source: 0, Dests: []topology.NodeID{1}, HostSends: map[topology.NodeID][]WormSpec{0: {{Kind: WormUnicast, Dest: 1}}, 3: {{Kind: WormUnicast, Dest: 1}}}},
	}
	for name, plan := range cases {
		if _, err := n.Send(plan, 128, 0, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := n.Send(unicastPlan(0, 1), 0, 0, nil); err == nil {
		t.Error("zero-length message accepted")
	}
}

func TestStatsConservation(t *testing.T) {
	n := twoSwitch(t)
	mustRun(t, n, unicastPlan(0, 2), 128)
	s := n.Stats()
	if s.MessagesSent != 1 || s.MessagesDone != 1 {
		t.Fatalf("message counters: %+v", s)
	}
	wormLen := int64(UnicastHeaderFlits + 128)
	if s.FlitsDelivered != wormLen {
		t.Fatalf("FlitsDelivered = %d, want %d", s.FlitsDelivered, wormLen)
	}
	// Injection link + 2 switch hops = 3 channel traversals per flit.
	if s.FlitHops != 3*wormLen {
		t.Fatalf("FlitHops = %d, want %d", s.FlitHops, 3*wormLen)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.OHostSend = -1 },
		func(p *Params) { p.BusMBps = 0 },
		func(p *Params) { p.PacketFlits = 0 },
		func(p *Params) { p.BufferFlits = 0 },
		func(p *Params) { p.LinkDelay = 0 },
		func(p *Params) { p.NIInjectBufferPackets = -1 },
	}
	for i, mut := range bad {
		p := DefaultParams()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWithR(t *testing.T) {
	p := DefaultParams()
	for _, r := range []float64{0.5, 1, 2, 4} {
		q := p.WithR(r)
		if got := q.R(); got < r*0.99 || got > r*1.01 {
			t.Fatalf("WithR(%v) gives R=%v", r, got)
		}
	}
}

func TestBusCycles(t *testing.T) {
	p := DefaultParams() // 266 MB/s at 10ns => 2.66 B/cycle
	if got := p.BusCycles(128); got != 49 {
		t.Fatalf("BusCycles(128) = %d, want 49", got)
	}
	if got := p.BusCycles(1); got != 1 {
		t.Fatalf("BusCycles(1) = %d, want 1", got)
	}
}

func TestPackets(t *testing.T) {
	p := DefaultParams()
	cases := map[int]int{1: 1, 128: 1, 129: 2, 256: 2, 257: 3}
	for flits, want := range cases {
		if got := p.Packets(flits); got != want {
			t.Fatalf("Packets(%d) = %d, want %d", flits, got, want)
		}
	}
}

func TestHeaderSizes(t *testing.T) {
	if TreeHeaderFlits(32) != 5 || TreeHeaderFlits(8) != 2 || TreeHeaderFlits(128) != 17 {
		t.Fatal("tree header sizing wrong")
	}
	if PathSegFlits(8) != 2 || PathSegFlits(16) != 3 {
		t.Fatal("path segment sizing wrong")
	}
	if PathHeaderFlits(3, 8) != 7 {
		t.Fatal("path header sizing wrong")
	}
}

func TestNIBufferBoundStillCompletes(t *testing.T) {
	p := DefaultParams()
	p.NIInjectBufferPackets = 1
	topo, err := topology.Build(2, 4,
		[][4]int{{0, 0, 1, 0}},
		[][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(rt, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := mustRun(t, n, unicastPlan(0, 2), 128*4)
	if m.Packets != 4 {
		t.Fatalf("packets = %d", m.Packets)
	}
}

func TestCreditThroughputBufferTwoSuffices(t *testing.T) {
	// Credit round trip is 2 cycles (1 forward + 1 return), so a 2-flit
	// buffer already sustains full line rate: latency must equal the
	// 16-flit-buffer default exactly.
	lat := func(buf int) event.Time {
		p := DefaultParams()
		p.BufferFlits = buf
		topo, err := topology.Build(2, 4,
			[][4]int{{0, 0, 1, 0}},
			[][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := updown.New(topo)
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(rt, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, n, unicastPlan(0, 2), 128).Latency()
	}
	if l2, l16 := lat(2), lat(16); l2 != l16 {
		t.Fatalf("2-flit buffer (%d) should match 16-flit buffer (%d)", l2, l16)
	}
	// A 1-flit buffer halves every intermediate hop's rate: the stream's
	// tail arrives ~(wormLen-1) cycles later.
	l1, l16 := lat(1), lat(16)
	extra := l1 - l16
	wormLen := event.Time(UnicastHeaderFlits + 128)
	if extra < wormLen-10 || extra > wormLen+10 {
		t.Fatalf("1-flit buffer slowdown %d, want ~%d", extra, wormLen-1)
	}
}

func TestPortArbitrationFIFO(t *testing.T) {
	// Messages from equal-distance sources contending for the same
	// inter-switch link and ejection port: the ports must serve them in
	// request order, so completions follow the staggered injection order.
	n := twoSwitch(t)
	var order []int64
	for i, src := range []topology.NodeID{0, 1} {
		for rep := 0; rep < 3; rep++ {
			_, err := n.Send(unicastPlan(src, 2), 128, event.Time(i+rep*2), func(m *Message) {
				order = append(order, m.ID)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 6 {
		t.Fatalf("completions %d", len(order))
	}
	// Node 0's sends get IDs 0..2 (t=0,2,4), node 1's IDs 3..5 (t=1,3,5);
	// initiation order is therefore 0,3,1,4,2,5 and FIFO port service
	// must preserve it end to end.
	want := []int64{0, 3, 1, 4, 2, 5}
	for i, id := range want {
		if order[i] != id {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

func TestParallelLinksBothUsed(t *testing.T) {
	// Two parallel links between the switches; adaptive routing must
	// spread concurrent worms across both.
	topo, err := topology.Build(2, 6,
		[][4]int{{0, 0, 1, 0}, {0, 1, 1, 1}},
		[][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(rt, DefaultParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		src := topology.NodeID(i % 2)
		dst := topology.NodeID(2 + i%2)
		if _, err := n.Send(unicastPlan(src, dst), 128, event.Time(i*11), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	used := 0
	for _, u := range n.ChannelUsage() {
		if (u.Label == "s0p0->s1" || u.Label == "s0p1->s1") && u.Flits > 0 {
			used++
		}
	}
	if used != 2 {
		t.Fatalf("only %d of 2 parallel links carried traffic", used)
	}
}

func TestChannelUsageSorted(t *testing.T) {
	n := twoSwitch(t)
	mustRun(t, n, unicastPlan(0, 2), 128)
	usage := n.ChannelUsage()
	if len(usage) == 0 {
		t.Fatal("no channels reported")
	}
	for i := 1; i < len(usage); i++ {
		if usage[i-1].Flits < usage[i].Flits {
			t.Fatal("usage not sorted busiest-first")
		}
	}
	// The worm crossed 3 channels with equal flit counts; everything else
	// is zero.
	wormLen := int64(UnicastHeaderFlits + 128)
	for i := 0; i < 3; i++ {
		if usage[i].Flits != wormLen {
			t.Fatalf("channel %d carried %d flits, want %d", i, usage[i].Flits, wormLen)
		}
	}
	if usage[3].Flits != 0 {
		t.Fatalf("idle channel carried %d flits", usage[3].Flits)
	}
}

func TestDrainEventBudget(t *testing.T) {
	n := twoSwitch(t)
	if _, err := n.Send(unicastPlan(0, 2), 128, 0, nil); err != nil {
		t.Fatal(err)
	}
	// A 3-event budget cannot complete a message: the budget error must
	// surface rather than a hang or silent success.
	if err := n.Drain(3); err == nil {
		t.Fatal("exhausted budget reported success")
	}
}

func TestOutstandingTracksLifetime(t *testing.T) {
	n := twoSwitch(t)
	if n.Outstanding() != 0 {
		t.Fatal("fresh network has outstanding messages")
	}
	if _, err := n.Send(unicastPlan(0, 2), 128, 0, nil); err != nil {
		t.Fatal(err)
	}
	if n.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after send", n.Outstanding())
	}
	if err := n.Drain(0); err != nil {
		t.Fatal(err)
	}
	if n.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", n.Outstanding())
	}
}

func TestWithRClampsToOne(t *testing.T) {
	p := DefaultParams().WithR(1000)
	if p.ONISend != 1 || p.ONIRecv != 1 {
		t.Fatalf("extreme R should clamp o_ni to 1 cycle, got %d", p.ONISend)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WithR(0) did not panic")
		}
	}()
	DefaultParams().WithR(0)
}

func TestWormKindStrings(t *testing.T) {
	if WormUnicast.String() != "unicast" || WormTree.String() != "tree" || WormPath.String() != "path" {
		t.Fatal("WormKind strings wrong")
	}
	if TraceInject.String() != "inject" || TraceDeliver.String() != "deliver" {
		t.Fatal("TraceKind strings wrong")
	}
}

func TestMessageLatencyPanicsWhileIncomplete(t *testing.T) {
	n := twoSwitch(t)
	m, err := n.Send(unicastPlan(0, 2), 128, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Latency on in-flight message did not panic")
		}
	}()
	_ = m.Latency()
}
