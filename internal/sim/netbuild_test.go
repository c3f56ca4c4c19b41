package sim

import (
	"fmt"
	"regexp"
	"testing"

	"mcastsim/internal/obs"
	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
	"mcastsim/internal/updown"
)

// newAllocs reports the heap allocations one New makes on a fat-tree.
func newAllocs(t *testing.T, c topology.FatTreeConfig) float64 {
	t.Helper()
	topo, err := topology.FatTree(c)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := New(rt, DefaultParams(), 1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNewAllocsIndependentOfHosts pins the construction layout (DESIGN.md
// §20): New draws ports, channels and NIs from a fixed set of slabs, so
// its allocation count depends on the switch count only. Doubling the
// hosts of a fat-tree without changing its switches must not add
// allocations beyond a small constant, and the total stays under a fixed
// per-switch bound.
func TestNewAllocsIndependentOfHosts(t *testing.T) {
	base := topology.FatTreeConfig{Pods: 4, EdgePerPod: 4, AggPerPod: 4, CoreUplinksPerAgg: 4, HostsPerEdge: 16}
	wide := base
	wide.HostsPerEdge *= 2
	small, big := newAllocs(t, base), newAllocs(t, wide)
	t.Logf("New allocations on %d switches: %v at %d hosts, %v at %d hosts",
		base.Switches(), small, base.Hosts(), big, wide.Hosts())
	if big-small > 4 {
		t.Errorf("New allocates %v at %d hosts but %v at %d hosts: allocations grow with hosts",
			small, base.Hosts(), big, wide.Hosts())
	}
	limit := float64(8*base.Switches() + 64)
	if small > limit || big > limit {
		t.Errorf("New allocates %v / %v on %d switches, want <= %v", small, big, base.Switches(), limit)
	}
}

// wantLabels lists the historical label of every channel of topo: one
// "s<s>p<p>->s<peer>" or "ej n<node>" per wired switch port, and one
// "inj n<node>" per host.
func wantLabels(topo *topology.Topology) map[string]bool {
	want := make(map[string]bool)
	for s := 0; s < topo.NumSwitches; s++ {
		for p := 0; p < topo.PortsPerSwitch; p++ {
			switch e := topo.Conn[s][p]; e.Kind {
			case topology.ToSwitch:
				want[fmt.Sprintf("s%dp%d->s%d", s, p, e.Switch)] = true
			case topology.ToNode:
				want[fmt.Sprintf("ej n%d", e.Node)] = true
			}
		}
	}
	for node := 0; node < topo.NumNodes; node++ {
		want[fmt.Sprintf("inj n%d", node)] = true
	}
	return want
}

// TestChannelLabelsDerived checks the on-demand channel labels on a
// paper-size network: every label has one of the three historical forms,
// labels are distinct, they name exactly the topology's channels, and
// the list obs registers is the set ChannelUsage reports.
func TestChannelLabelsDerived(t *testing.T) {
	topo, err := topology.Generate(topology.DefaultConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := updown.New(topo)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.Config{Every: 1 << 40})
	n, err := New(rt, DefaultParams(), 5, WithObs(rec))
	if err != nil {
		t.Fatal(err)
	}
	form := regexp.MustCompile(`^(s\d+p\d+->s\d+|inj n\d+|ej n\d+)$`)
	want := wantLabels(topo)
	usage := n.ChannelUsage()
	seen := make(map[string]bool, len(usage))
	for _, u := range usage {
		if !form.MatchString(u.Label) {
			t.Errorf("label %q has none of the historical forms", u.Label)
		}
		if seen[u.Label] {
			t.Errorf("label %q names two channels", u.Label)
		}
		seen[u.Label] = true
		if !want[u.Label] {
			t.Errorf("label %q names no channel of the topology", u.Label)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("ChannelUsage reports %d channels, topology has %d", len(seen), len(want))
	}
	attached := rec.Bundle("labels").Channels
	if len(attached) != len(usage) {
		t.Fatalf("obs registered %d channels, ChannelUsage reports %d", len(attached), len(usage))
	}
	registered := make(map[string]bool, len(attached))
	for _, l := range attached {
		if !seen[l] || registered[l] {
			t.Errorf("obs label %q is a duplicate or not a ChannelUsage label", l)
		}
		registered[l] = true
	}
}
