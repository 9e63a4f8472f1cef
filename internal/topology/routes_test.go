package topology

import (
	"fmt"
	"slices"
	"testing"

	"dcqcn/internal/fabric"
	"dcqcn/internal/packet"
)

// TestRoutesMatchPerHostBFS requires every switch's route table, on each
// builder's network, to equal what a BFS from each host's ToR installs
// when it is run once per host: the routing ComputeRoutes did before it
// ran one BFS per ToR. Each ECMP group must hold the same ports in the
// same order, since the flow hash indexes into it.
func TestRoutesMatchPerHostBFS(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Network
	}{
		{"testbed", func() *Network { return NewTestbed(1, DefaultOptions()) }},
		{"star", func() *Network { return NewStar(1, 8, DefaultOptions()) }},
		{"fat-tree-k4", func() *Network { return NewFatTree(1, 4, DefaultOptions()) }},
		{"ring-6", func() *Network { return NewRing(1, 6, DefaultOptions()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.build()
			want := perHostRoutes(n)
			checked := 0
			for _, name := range n.swOrder {
				sw := n.Switches[name]
				for dst := packet.NodeID(0); dst < n.nextID; dst++ {
					got, exp := sw.Routes(dst), want[sw][dst]
					if !slices.Equal(got, exp) {
						t.Errorf("%s toward node %d: ports %v, per-host BFS gives %v", name, dst, got, exp)
					}
					if exp != nil {
						checked++
					}
				}
			}
			if hosts := len(n.hostOrder); checked != hosts*len(n.swOrder) {
				t.Fatalf("%d routes checked, want one per (switch, host): %d", checked, hosts*len(n.swOrder))
			}
		})
	}
}

// perHostRoutes returns the route table of every switch of n as the
// per-host BFS built it: routeToHost as it stood, with its AddRoute
// calls recorded instead of made.
func perHostRoutes(n *Network) map[*fabric.Switch]map[packet.NodeID][]int {
	table := map[*fabric.Switch]map[packet.NodeID][]int{}
	add := func(sw *fabric.Switch, dst packet.NodeID, ports ...int) {
		if table[sw] == nil {
			table[sw] = map[packet.NodeID][]int{}
		}
		table[sw][dst] = append(table[sw][dst], ports...)
	}
	routeToHost := func(tor *fabric.Switch, he hostEdge) {
		dist := map[*fabric.Switch]int{tor: 0}
		queue := []*fabric.Switch{tor}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, e := range n.neighbors[cur] {
				if _, seen := dist[e.peer]; !seen {
					dist[e.peer] = dist[cur] + 1
					queue = append(queue, e.peer)
				}
			}
		}
		dst := he.host.ID
		add(tor, dst, he.port)
		for _, name := range n.swOrder {
			sw := n.Switches[name]
			if sw == tor {
				continue
			}
			d, reachable := dist[sw]
			if !reachable {
				continue
			}
			var ports []int
			for _, e := range n.neighbors[sw] {
				if dd, ok := dist[e.peer]; ok && dd == d-1 {
					ports = append(ports, e.port)
				}
			}
			if len(ports) == 0 {
				panic(fmt.Sprintf("topology: no downhill neighbor from %s toward %s", sw.Name, he.host.Name))
			}
			add(sw, dst, ports...)
		}
	}
	for _, tor := range n.swOrder {
		torSw := n.Switches[tor]
		for _, he := range n.attached[torSw] {
			routeToHost(torSw, he)
		}
	}
	return table
}
