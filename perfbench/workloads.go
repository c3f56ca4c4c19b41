package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"mcastsim/internal/event"
	"mcastsim/internal/mcast"
	"mcastsim/internal/mcast/binomial"
	"mcastsim/internal/mcast/kbinomial"
	"mcastsim/internal/mcast/pathworm"
	"mcastsim/internal/mcast/treeworm"
	"mcastsim/internal/rng"
	"mcastsim/internal/sim"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// msgFlits is the payload of every multicast: one 128-flit packet, the
// paper's default message.
const msgFlits = 128

// Salts separating the input streams drawn from one workload seed.
const (
	saltFamily   uint64 = 0xfa111
	saltSchedule uint64 = 0x5c4ed
	saltRack     uint64 = 0x4ac4
	saltArb      uint64 = 0xa4b
)

// size holds every knob that scales a workload. fullSize is what the
// benchmark measures; the tests run tinySize.
type size struct {
	loadTopos int // paper-load topology family size
	loadMsgs  int // multicasts per paper-load cell
	rackSets  int // scale-l rack-clustered destination sets
	racks     int // edge switches per scale-l destination set
	fatTree   topology.FatTreeConfig
}

var fullSize = size{
	loadTopos: 8,
	loadMsgs:  192,
	rackSets:  8,
	racks:     8,
	// The scale sweep's L fat-tree: 1,088 switches, 101,376 hosts.
	fatTree: topology.FatTreeConfig{Pods: 32, EdgePerPod: 24, AggPerPod: 8, CoreUplinksPerAgg: 8, HostsPerEdge: 132},
}

var tinySize = size{
	loadTopos: 1,
	loadMsgs:  8,
	rackSets:  1,
	racks:     2,
	fatTree:   topology.FatTreeConfig{Pods: 2, EdgePerPod: 2, AggPerPod: 2, CoreUplinksPerAgg: 1, HostsPerEdge: 8},
}

// op is one measured operation of a workload's fixed mix.
type op struct {
	scheme string
	// cell names a paper-load op's scheme, degree and load, under which
	// its simulated latencies are summarised; it is empty on scale-l.
	cell string
	run  func(tr *tracer) (opResult, error)
}

// opResult is what an op's simulation produced: the digest of its model
// outputs, the simulated counters, the events the engine processed, and
// the mean simulated latency, in cycles, of the first and of the last
// quarter of its multicasts by arrival.
type opResult struct {
	digest uint64
	stats  sim.Stats
	events uint64
	lat    [2]float64
}

// workload builds its op mix from a seed. setup is timed as setup_s; it
// must do all input generation, so ops only call the simulator.
type workload struct {
	name  string
	setup func(seed uint64, sz size, tr *tracer) ([]op, error)
}

var workloads = []workload{
	{"paper-load", setupPaperLoad},
	{"scale-l", setupScaleL},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperSchemes are the four schemes the paper compares.
func paperSchemes() []mcast.Scheme {
	return []mcast.Scheme{binomial.New(), kbinomial.New(), treeworm.New(), pathworm.New()}
}

// paperFamily builds the paper's default system (8 switches x 8 ports,
// 32 hosts) as a family of random irregular topologies, routed.
func paperFamily(seed uint64, count int, tr *tracer) ([]*updown.Routing, error) {
	s := tr.begin("topology", "")
	topos, err := topology.GenerateFamily(topology.DefaultConfig(), count, rng.Mix(seed, saltFamily))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	rts := make([]*updown.Routing, len(topos))
	s = tr.begin("updown", "")
	defer tr.end(s)
	for i, t := range topos {
		if rts[i], err = updown.New(t); err != nil {
			return nil, err
		}
	}
	return rts, nil
}

// plan is Scheme.Plan under a span.
func plan(tr *tracer, sch mcast.Scheme, rt *updown.Routing, p sim.Params, src topology.NodeID, dests []topology.NodeID) (*sim.Plan, error) {
	s := tr.begin("Plan", sch.Name())
	defer tr.end(s)
	return sch.Plan(rt, p, src, dests, msgFlits)
}

// drawDests draws a degree-d destination set excluding src.
func drawDests(r *rng.Source, numNodes, d int, src topology.NodeID) []topology.NodeID {
	out := make([]topology.NodeID, 0, d)
	for _, v := range r.Sample(numNodes-1, d) {
		if topology.NodeID(v) >= src {
			v++
		}
		out = append(out, topology.NodeID(v))
	}
	return out
}

// arrival is one scheduled multicast of a paper-load cell.
type arrival struct {
	at    event.Time
	src   topology.NodeID
	dests []topology.NodeID
}

// poissonSchedule merges independent Poisson arrival streams at every
// node, each at the per-node rate that applies effective load `load`
// with degree-d, msgFlits multicasts (mean gap d*msgFlits/load cycles),
// and keeps the first count arrivals. A fixed count keeps every cell's
// work the same from seed to seed.
func poissonSchedule(r *rng.Source, numNodes, d int, load float64, count int) []arrival {
	meanGap := float64(d*msgFlits) / load
	streams := make([]*rng.Source, numNodes)
	next := make([]event.Time, numNodes)
	for i := range streams {
		streams[i] = r.Split()
		next[i] = event.Time(streams[i].Exp(meanGap))
	}
	out := make([]arrival, 0, count)
	for len(out) < count {
		src := 0
		for i := range next {
			if next[i] < next[src] {
				src = i
			}
		}
		s := streams[src]
		out = append(out, arrival{at: next[src], src: topology.NodeID(src), dests: drawDests(s, numNodes, d, topology.NodeID(src))})
		next[src] += event.Time(s.Exp(meanGap)) + 1
	}
	return out
}

// paperLoads are the paper-load effective loads: below every scheme's
// saturation point, and at the NI scheme's (EXPERIMENTS.md, Figure 9).
var paperLoads = []float64{0.1, 0.3}

// drainWindow bounds how long a paper-load cell runs past its last
// arrival. Every message must complete inside it; the saturated cells
// finish well within it.
const drainWindow = 2_000_000

// setupPaperLoad builds open-loop load cells on the paper's default
// system: every (topology, degree, load) schedule is planned by each of
// the four schemes. One op simulates one cell.
func setupPaperLoad(seed uint64, sz size, tr *tracer) ([]op, error) {
	rts, err := paperFamily(seed, sz.loadTopos, tr)
	if err != nil {
		return nil, err
	}
	p := sim.DefaultParams()
	schemes := paperSchemes()
	var ops []op
	for ti, rt := range rts {
		for _, d := range []int{8, 16} {
			for li, load := range paperLoads {
				r := rng.New(rng.Mix(seed, saltSchedule, uint64(ti), uint64(d), uint64(li)))
				sched := poissonSchedule(r, rt.Topo.NumNodes, d, load, sz.loadMsgs)
				end := sched[len(sched)-1].at + drainWindow
				for si, sch := range schemes {
					plans := make([]*sim.Plan, len(sched))
					for i, a := range sched {
						if plans[i], err = plan(tr, sch, rt, p, a.src, a.dests); err != nil {
							return nil, fmt.Errorf("paper-load: %s: %w", sch.Name(), err)
						}
					}
					o := loadOp(rt, p, sch.Name(), sched, plans, end,
						rng.Mix(seed, saltArb, uint64(ti), uint64(d), uint64(li), uint64(si)))
					o.cell = fmt.Sprintf("%s/d%d/%g", sch.Name(), d, load)
					ops = append(ops, o)
				}
			}
		}
	}
	return ops, nil
}

func loadOp(rt *updown.Routing, p sim.Params, scheme string, sched []arrival, plans []*sim.Plan, end event.Time, arbSeed uint64) op {
	return op{scheme: scheme, run: func(tr *tracer) (opResult, error) {
		s := tr.beginAlloc("sim.New", scheme)
		n, err := sim.New(rt, p, arbSeed)
		tr.end(s)
		if err != nil {
			return opResult{}, err
		}
		msgs := make([]*sim.Message, len(plans))
		s = tr.beginAlloc("Send", scheme)
		for i, pl := range plans {
			if msgs[i], err = n.Send(pl, msgFlits, sched[i].at, nil); err != nil {
				break
			}
		}
		tr.end(s)
		if err != nil {
			return opResult{}, err
		}
		s = tr.beginAlloc("RunUntil", scheme)
		n.RunUntil(end)
		tr.end(s)
		return check(tr, n, msgs)
	}}
}

// scaleOp plans one multicast, builds a fresh network and runs the
// multicast on it to completion.
func scaleOp(rt *updown.Routing, p sim.Params, sch mcast.Scheme, src topology.NodeID, dests []topology.NodeID, arbSeed uint64) op {
	scheme := sch.Name()
	return op{scheme: scheme, run: func(tr *tracer) (opResult, error) {
		pl, err := plan(tr, sch, rt, p, src, dests)
		if err != nil {
			return opResult{}, err
		}
		s := tr.beginAlloc("sim.New", scheme)
		n, err := sim.New(rt, p, arbSeed)
		tr.end(s)
		if err != nil {
			return opResult{}, err
		}
		s = tr.beginAlloc("RunSingle", scheme)
		m, err := n.RunSingle(pl, msgFlits)
		tr.end(s)
		if err != nil {
			return opResult{}, err
		}
		return check(tr, n, []*sim.Message{m})
	}}
}

// setupScaleL builds the scale sweep's L fat-tree and its up*/down*
// routing, and draws rack-clustered destination sets. Each op plans one
// set under one of the four schemes (tree with interval headers), builds
// a network and runs the multicast to completion. The scale sweep
// compares three schemes; the software binomial baseline joins them so
// every per-scheme layer metric is measured on every workload.
func setupScaleL(seed uint64, sz size, tr *tracer) ([]op, error) {
	s := tr.begin("topology", "")
	t, err := topology.FatTree(sz.fatTree)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("updown", "")
	rt, err := updown.New(t)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	p := sim.DefaultParams()
	p.DestCoding = sim.HeaderIval
	nbs := t.NodesBySwitch()
	var hostSwitches []int
	for sw, nodes := range nbs {
		if len(nodes) > 0 {
			hostSwitches = append(hostSwitches, sw)
		}
	}
	schemes := paperSchemes()
	var ops []op
	for set := 0; set < sz.rackSets; set++ {
		r := rng.New(rng.Mix(seed, saltRack, uint64(set)))
		src := topology.NodeID(r.Intn(t.NumNodes))
		var dests []topology.NodeID
		for _, i := range r.Sample(len(hostSwitches), sz.racks) {
			for _, n := range nbs[hostSwitches[i]] {
				if n != src {
					dests = append(dests, n)
				}
			}
		}
		for si, sch := range schemes {
			ops = append(ops, scaleOp(rt, p, sch, src, dests,
				rng.Mix(seed, saltArb, uint64(set), uint64(si))))
		}
	}
	return ops, nil
}

// check is the op's correctness gate: every multicast reached every
// destination, the network drained with conserved counters, and the
// model outputs fold into the op's digest.
func check(tr *tracer, n *sim.Network, msgs []*sim.Message) (opResult, error) {
	s := tr.begin("check", "")
	defer tr.end(s)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var res opResult
	q := (len(msgs) + 3) / 4
	for i, m := range msgs {
		if !m.Done() || !m.DeliveredAll() {
			return opResult{}, fmt.Errorf("message %d did not reach every destination", i)
		}
		lat := m.Latency()
		put(int64(lat))
		if i < q {
			res.lat[0] += float64(lat) / float64(q)
		}
		if i >= len(msgs)-q {
			res.lat[1] += float64(lat) / float64(q)
		}
	}
	if err := n.CheckConservation(); err != nil {
		return opResult{}, err
	}
	// Every simulated counter except the engine's event count, which an
	// event-coalescing change may legitimately move.
	st := n.Stats()
	for _, v := range []int64{
		st.WormsCreated, st.PacketsInjected, st.FlitHops, st.FlitsDelivered,
		st.PacketsAtNI, st.PacketsToHost, st.MessagesSent, st.MessagesDone,
		st.FlitsDropped, st.WormsKilled, st.DestsFailed, st.Reconfigs,
		st.MembershipEvents, st.StaleDeliveries, st.MissedDeliveries,
	} {
		put(v)
	}
	res.digest, res.stats, res.events = h.Sum64(), st, n.EventsProcessed()
	return res, nil
}
