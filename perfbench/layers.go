package main

import (
	"runtime"

	"mcastsim/internal/sim"
)

// schemeNames are the four schemes per-scheme layer metrics are kept for.
var schemeNames = []string{"sw-binomial", "ni-kbinomial", "sw-tree", "sw-path"}

// roundCounts sums the model outputs of one round of the op mix. They
// repeat exactly for a seed, so one round stands for every round.
type roundCounts struct {
	stats  sim.Stats
	events uint64
}

func (c *roundCounts) add(r opResult) {
	c.stats.FlitHops += r.stats.FlitHops
	c.stats.WormsCreated += r.stats.WormsCreated
	c.stats.PacketsInjected += r.stats.PacketsInjected
	c.stats.FlitsDelivered += r.stats.FlitsDelivered
	c.stats.MessagesDone += r.stats.MessagesDone
	c.events += r.events
}

// gcStats is a reading of the collector's cumulative counters.
type gcStats struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{cycles: m.NumGC, pauseNS: m.PauseTotalNs}
}

func (g gcStats) minus(o gcStats) gcStats {
	return gcStats{cycles: g.cycles - o.cycles, pauseNS: g.pauseNS - o.pauseNS}
}

// layerTotals sums span time (and allocations) per layer key within one
// pass: one setup, or one traced round of ops.
type layerTotals map[string]float64

// layerMetrics turns the traced run's spans into per-layer metrics.
// Setup layers report the median over the setup repetitions; op layers
// report the mean per traced round of the op mix. The GC counters are
// per timed round, traced and untraced, and include the collections
// measure forces before each set-up and before the ops.
func layerMetrics(tr *tracer, tracedRounds, rounds int, c roundCounts, gc gcStats) []metric {
	var setups []layerTotals
	ops := layerTotals{}
	rootPass := map[int32]layerTotals{}
	for id := range tr.spans {
		s := &tr.spans[id]
		r := tr.root(int32(id))
		var pass layerTotals
		if tr.spans[r].name == "setup" {
			if pass = rootPass[r]; pass == nil {
				pass = layerTotals{}
				rootPass[r] = pass
				setups = append(setups, pass)
			}
		} else {
			pass = ops
		}
		d := s.seconds()
		if s.parent >= 0 {
			// Self time: the parent's duration less its children's.
			pass["self."+tr.spans[s.parent].name] -= d
		}
		pass["self."+s.name] += d
		switch s.name {
		case "topology":
			pass["topology.build_s"] += d
		case "updown":
			pass["updown.build_s"] += d
		case "Plan":
			pass["mcast.plans"]++
			pass["mcast.plan_s"] += d
			pass["mcast.plan_s."+s.scheme] += d
		case "sim.New":
			pass["sim.new_s"] += d
			pass["sim.new_alloc_mb"] += float64(s.allocs) / (1 << 20)
		case "Send", "RunUntil", "RunSingle":
			pass["sim.run_s"] += d
			pass["sim.run_s."+s.scheme] += d
			pass["sim.run_alloc_mb"] += float64(s.allocs) / (1 << 20)
		case "check":
			pass["sim.check_s"] += d
		case "op":
			pass["op_s"] += d
		}
	}
	get := func(key string) float64 {
		if len(setups) > 0 && hasKey(setups, key) {
			vals := make([]float64, len(setups))
			for i, p := range setups {
				vals[i] = p[key]
			}
			return median(vals)
		}
		return ops[key] / float64(tracedRounds)
	}

	ms := []metric{
		{"topology.build_s", get("topology.build_s"), "s"},
		{"updown.build_s", get("updown.build_s"), "s"},
		{"mcast.plans", get("mcast.plans"), "count"},
		{"mcast.plan_s", get("mcast.plan_s"), "s"},
	}
	for _, sc := range schemeNames {
		ms = append(ms, metric{"mcast.plan_s." + sc, get("mcast.plan_s." + sc), "s"})
	}
	runS := get("sim.run_s")
	ms = append(ms,
		metric{"sim.new_s", get("sim.new_s"), "s"},
		metric{"sim.new_alloc_mb", get("sim.new_alloc_mb"), "MB"},
		metric{"sim.run_s", runS, "s"},
	)
	for _, sc := range schemeNames {
		ms = append(ms, metric{"sim.run_s." + sc, get("sim.run_s." + sc), "s"})
	}
	events := float64(c.events)
	hops := float64(c.stats.FlitHops)
	ms = append(ms,
		metric{"sim.run_alloc_mb", get("sim.run_alloc_mb"), "MB"},
		metric{"sim.check_s", get("sim.check_s"), "s"},
		metric{"event.events", events, "count"},
		metric{"event.ns_per_event", runS / events * 1e9, "ns"},
		metric{"event.events_per_flit_hop", events / hops, "ratio"},
		metric{"sim.flit_hops", hops, "count"},
		metric{"sim.worms_created", float64(c.stats.WormsCreated), "count"},
		metric{"sim.packets_injected", float64(c.stats.PacketsInjected), "count"},
		metric{"sim.flits_delivered", float64(c.stats.FlitsDelivered), "count"},
		metric{"sim.messages_done", float64(c.stats.MessagesDone), "count"},
		metric{"go.gc_cycles", float64(gc.cycles) / float64(rounds), "count"},
		metric{"go.gc_pause_ms", float64(gc.pauseNS) / 1e6 / float64(rounds), "ms"},
		metric{"go.heap_peak_mb", float64(tr.heapPeak) / (1 << 20), "MB"},
		metric{"self.setup_s", get("self.setup"), "s"},
		metric{"self.op_s", get("self.op"), "s"},
		metric{"trace.op_coverage", 1 - get("self.op")/get("op_s"), "ratio"},
	)
	return ms
}

func hasKey(passes []layerTotals, key string) bool {
	for _, p := range passes {
		if _, ok := p[key]; ok {
			return true
		}
	}
	return false
}
