package sim

import "mcastsim/internal/obs"

// Obs wiring. The entire subsystem hangs off the single nil-checked
// n.obsRec pointer: with it nil (the default) no probe fires, no event
// is posted, and the steady flit path is bit-for-bit the code it was
// before — the zero-overhead contract TestSteadyFlitPathZeroAllocObsOff
// and the golden traces pin.
//
// Sampling never perturbs the model: the flush only reads counters and
// queue depths, never touches n.arb, and the evObsFlush event's handler
// mutates no simulation state, so TraceEvent streams are byte-identical
// with obs enabled or disabled (only EventsProcessed moves, by the tick
// count).

// attachObs registers the network's shape with the recorder and indexes
// every channel for delta sampling. Enumeration order is deterministic:
// switch output channels in (switch, port) order, then per-node
// injection channels — the same walk ChannelUsage reports.
func (n *Network) attachObs(r *obs.Recorder) {
	n.obsRec = r
	n.obsChans = n.obsChans[:0]
	var labels []string
	for _, sw := range n.switches {
		for _, op := range sw.outPorts {
			if op == nil || op.ch == nil {
				continue
			}
			op.ch.obsID = int32(len(n.obsChans))
			n.obsChans = append(n.obsChans, op.ch)
			labels = append(labels, op.ch.label())
		}
	}
	for _, x := range n.nis {
		x.inj.obsID = int32(len(n.obsChans))
		n.obsChans = append(n.obsChans, x.inj)
		labels = append(labels, x.inj.label())
	}
	r.AttachNetwork(labels, n.topo.NumSwitches, n.topo.NumNodes)
	n.engineObsSink(r.EngineSink())
}

// obsArm starts the sampling tick if obs is attached and no tick is
// pending. Called from Send, so an idle network schedules nothing.
func (n *Network) obsArm() {
	if n.obsRec == nil || n.obsTickArmed {
		return
	}
	n.obsTickArmed = true
	n.ctlPostAfter(n.obsRec.Every(), evObsFlush, nil, 0)
}

// obsTick is the evObsFlush handler: sample, then re-arm only while the
// model still has both in-flight messages and runnable events. The
// second condition matters for termination: Drain treats an empty queue
// with outstanding messages as a stall, and a self-rescheduling tick
// would otherwise keep the queue non-empty forever on a genuinely
// wedged run.
func (n *Network) obsTick() {
	n.obsFlush()
	if n.outstanding.Load() > 0 && n.queueLen() > 0 {
		n.ctlPostAfter(n.obsRec.Every(), evObsFlush, nil, 0)
		return
	}
	n.obsTickArmed = false
}

// FlushObs captures the tail sampling interval — everything since the
// last tick — into the recorder. Traffic drivers call it once per
// network at end of run so interval series reconcile exactly with the
// final Stats (sum of per-channel flits == Stats.FlitHops). No-op when
// obs is disabled.
func (n *Network) FlushObs() {
	if n.obsRec != nil {
		n.obsFlush()
	}
}

// obsFlush writes one sample. Cumulative fields are passed as running
// totals; the recorder differentiates them against the previous sample.
func (n *Network) obsFlush() {
	r := n.obsRec
	r.Sample(n.nowAt(), func(s *obs.Snapshot) {
		for i, ch := range n.obsChans {
			s.ChanFlits[i] = ch.busyFlits
		}
		for si, sw := range n.switches {
			var occ int64
			for _, b := range sw.inBufs {
				if b != nil {
					occ += int64(b.used)
				}
			}
			s.BufOcc[si] = occ
		}
		for node, x := range n.nis {
			s.NISend[node] = int64(len(x.ready) + len(x.injWait))
			s.NIRecv[node] = int64(len(x.rxFlits))
		}
		if len(n.groups) > 0 {
			s.GroupSize = make([]int64, len(n.groups))
			s.GroupStale = make([]int64, len(n.groups))
			s.GroupMissed = make([]int64, len(n.groups))
			s.GroupRepairs = make([]int64, len(n.groups))
			for gi, g := range n.groups {
				s.GroupSize[gi] = int64(g.Size())
				s.GroupStale[gi] = g.stale
				s.GroupMissed[gi] = g.missed
				s.GroupRepairs[gi] = g.repairs
			}
		}
		s.FlitHops = n.stats.FlitHops
		es := n.engineEventStats()
		s.Events = es.Processed
		s.QueueLen = int64(es.Len)
		s.FarLen = int64(es.FarLen)
	})
}
