// Package topo builds multi-switch fabric topologies for the testbed: a
// line of switches (the oracle case the single-node platform generalizes
// to), two- and three-tier leaf-spine fabrics, and seeded random graphs.
//
// A Graph is a static wiring plan: switches with numbered ports, the edges
// between them, and the hosts hanging off edge switches. Routing is computed
// up front — one BFS shortest-path tree per host, iterated in port order, so
// routes are deterministic, loop-free, and independent of map iteration
// order. The fabric testbed (internal/testbed.NewFabric) instantiates the
// plan as simulated switches and netem links; the PathForwarder controller
// application answers per-hop misses from the same routing tables.
package topo

import (
	"fmt"
	"math/rand"
	"net/netip"
)

// Kind selects the topology family.
type Kind uint8

// Topology families.
const (
	// KindLine is Host — SW1 — SW2 — … — SWn — Host: every flow crosses
	// all n switches, the worst-case hop amplification.
	KindLine Kind = iota + 1
	// KindLeafSpine is the two-tier Clos fabric: every leaf connects to
	// every spine, hosts hang off leaves. Any leaf-to-leaf path is two
	// hops through one spine.
	KindLeafSpine
	// KindFatTree is the three-tier fabric: pods of leaves and spines,
	// cores connecting all spines. Cross-pod paths are four switch hops
	// (leaf → spine → core → spine → leaf).
	KindFatTree
	// KindRandom is a seeded connected random graph: a random spanning
	// tree plus extra edges, hosts on two distinct switches.
	KindRandom
)

func (k Kind) String() string {
	switch k {
	case KindLine:
		return "line"
	case KindLeafSpine:
		return "leafspine"
	case KindFatTree:
		return "fattree"
	case KindRandom:
		return "random"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MaxSwitches bounds how large a spec the builder accepts. It exists so the
// spec parser can be fuzzed (and specs taken from CLI flags) without letting
// a hostile string allocate an unbounded fabric.
const MaxSwitches = 65536

// Spec describes one topology. Build validates it and produces the Graph.
type Spec struct {
	Kind Kind

	// Switches is the line length (KindLine).
	Switches int
	// Leaves/Spines shape the two-tier fabric (KindLeafSpine).
	Leaves, Spines int
	// Pods, LeavesPerPod, SpinesPerPod and Cores shape the three-tier
	// fabric (KindFatTree).
	Pods, LeavesPerPod, SpinesPerPod, Cores int
	// Nodes and ExtraEdges shape the random graph (KindRandom): a random
	// spanning tree over Nodes switches plus ExtraEdges additional edges.
	Nodes, ExtraEdges int
	// Seed drives the random graph's RNG (and nothing else).
	Seed int64
	// Hosts is the number of hosts attached to the fabric (default 2; a
	// line always has exactly one host per end). Hosts are spread
	// round-robin across the family's edge switches.
	Hosts int
}

// NumSwitches reports the switch count the spec builds, before validation.
func (s Spec) NumSwitches() int {
	switch s.Kind {
	case KindLine:
		return s.Switches
	case KindLeafSpine:
		return s.Leaves + s.Spines
	case KindFatTree:
		return s.Pods*(s.LeavesPerPod+s.SpinesPerPod) + s.Cores
	case KindRandom:
		return s.Nodes
	}
	return 0
}

func (s Spec) validate() error {
	switch s.Kind {
	case KindLine:
		if s.Switches < 1 {
			return fmt.Errorf("topo: line needs at least 1 switch, got %d", s.Switches)
		}
		if s.Hosts != 0 && s.Hosts != 2 {
			return fmt.Errorf("topo: a line has exactly 2 hosts, got %d", s.Hosts)
		}
	case KindLeafSpine:
		if s.Leaves < 1 || s.Spines < 1 {
			return fmt.Errorf("topo: leafspine needs leaves and spines ≥ 1, got %d/%d", s.Leaves, s.Spines)
		}
	case KindFatTree:
		if s.Pods < 1 || s.LeavesPerPod < 1 || s.SpinesPerPod < 1 || s.Cores < 1 {
			return fmt.Errorf("topo: fattree needs pods, leaves, spines and cores ≥ 1, got %d/%d/%d/%d",
				s.Pods, s.LeavesPerPod, s.SpinesPerPod, s.Cores)
		}
	case KindRandom:
		if s.Nodes < 1 {
			return fmt.Errorf("topo: random graph needs nodes ≥ 1, got %d", s.Nodes)
		}
		if s.ExtraEdges < 0 {
			return fmt.Errorf("topo: negative extra edges %d", s.ExtraEdges)
		}
		if s.ExtraEdges > 4*s.Nodes {
			return fmt.Errorf("topo: extra edges %d exceed 4× node count", s.ExtraEdges)
		}
	default:
		return fmt.Errorf("topo: unknown kind %d", uint8(s.Kind))
	}
	if n := s.NumSwitches(); n > MaxSwitches {
		return fmt.Errorf("topo: %d switches exceed the %d limit", n, MaxSwitches)
	}
	if s.Hosts < 0 {
		return fmt.Errorf("topo: negative host count %d", s.Hosts)
	}
	if s.Hosts > MaxSwitches {
		return fmt.Errorf("topo: %d hosts exceed the %d limit", s.Hosts, MaxSwitches)
	}
	return nil
}

// Peer is what one switch port connects to: either a neighbouring switch
// (Switch ≥ 0, Port its port on the shared edge) or a host (Host ≥ 0).
type Peer struct {
	Switch int    // neighbour switch index, -1 for a host port
	Port   uint16 // neighbour's port on this edge (switch peers only)
	Host   int    // host index, -1 for a switch port
}

// Host is one end station: its attachment switch and port, and the address
// the fabric routes to it.
type Host struct {
	Switch int
	Port   uint16
	Addr   netip.Addr
}

// Graph is a built topology with precomputed shortest-path routing.
type Graph struct {
	Spec Spec

	// adj[i][p-1] is switch i's port p. Ports are 1-based and dense.
	adj [][]Peer
	// hosts are the attached end stations.
	hosts []Host
	// routes[h][i] is switch i's next-hop port toward host h (0 when i is
	// unreachable from h's attachment switch — impossible on a validated
	// connected graph).
	routes [][]uint16
	// addrIndex maps a host address back to its index.
	addrIndex map[netip.Addr]int
}

// hostAddr assigns host i the address 10.0.0.0/16 + (i+1), disjoint from
// the 10.1.0.0/16 block pktgen forges sources from. Hosts 0 and 1 are the
// paper platform's Host1 (10.0.0.1, the sender) and Host2 (10.0.0.2, the
// receiver), so a single-switch line replays Fig. 1 schedules unchanged.
func hostAddr(i int) netip.Addr {
	n := i + 1 // skip .0 in the first block
	return netip.AddrFrom4([4]byte{10, 0, byte(n >> 8), byte(n)})
}

// Build validates the spec and constructs the graph, including routing.
func Build(spec Spec) (*Graph, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	g := &Graph{Spec: spec}
	switch spec.Kind {
	case KindLine:
		g.buildLine(spec.Switches)
	case KindLeafSpine:
		g.buildLeafSpine(spec.Leaves, spec.Spines, defaultHosts(spec.Hosts))
	case KindFatTree:
		g.buildFatTree(spec.Pods, spec.LeavesPerPod, spec.SpinesPerPod, spec.Cores, defaultHosts(spec.Hosts))
	case KindRandom:
		g.buildRandom(spec.Nodes, spec.ExtraEdges, spec.Seed, defaultHosts(spec.Hosts))
	}
	g.addrIndex = make(map[netip.Addr]int, len(g.hosts))
	for i, h := range g.hosts {
		g.addrIndex[h.Addr] = i
	}
	if err := g.checkConnected(); err != nil {
		return nil, err
	}
	g.computeRoutes()
	return g, nil
}

func defaultHosts(h int) int {
	if h == 0 {
		return 2
	}
	return h
}

// addEdge wires a duplex edge between switches a and b, appending one port
// to each. Construction order defines port numbers, so builders add edges in
// a fixed, documented order.
func (g *Graph) addEdge(a, b int) {
	pa := uint16(len(g.adj[a]) + 1)
	pb := uint16(len(g.adj[b]) + 1)
	g.adj[a] = append(g.adj[a], Peer{Switch: b, Port: pb, Host: -1})
	g.adj[b] = append(g.adj[b], Peer{Switch: a, Port: pa, Host: -1})
}

// addHost attaches the next host to switch sw on a fresh port.
func (g *Graph) addHost(sw int) {
	id := len(g.hosts)
	port := uint16(len(g.adj[sw]) + 1)
	g.adj[sw] = append(g.adj[sw], Peer{Switch: -1, Host: id})
	g.hosts = append(g.hosts, Host{Switch: sw, Port: port, Addr: hostAddr(id)})
}

// buildLine wires Host0 — SW0 — … — SW(n-1) — Host1. Port 1 faces left (or
// Host0), port 2 faces right (or Host1), so a 1-switch line is exactly the
// paper's Fig. 1 platform.
func (g *Graph) buildLine(n int) {
	g.adj = make([][]Peer, n)
	g.addHost(0) // SW0 port 1 = Host0
	for i := 0; i+1 < n; i++ {
		g.addEdge(i, i+1) // SWi port 2 ↔ SW(i+1) port 1
	}
	g.addHost(n - 1) // last switch's next port (2) = Host1
}

// buildLeafSpine wires leaves 0..L-1 and spines L..L+S-1 as a complete
// bipartite fabric: leaf l port s+1 ↔ spine s port l+1. Hosts go round-robin
// across leaves on ports S+1, S+2, ….
func (g *Graph) buildLeafSpine(L, S, hosts int) {
	g.adj = make([][]Peer, L+S)
	for l := 0; l < L; l++ {
		for s := 0; s < S; s++ {
			g.addEdge(l, L+s)
		}
	}
	for h := 0; h < hosts; h++ {
		g.addHost(h % L)
	}
}

// buildFatTree wires pods of leaves and spines plus a core tier: within pod
// p, every leaf connects to every pod spine; every pod spine connects to
// every core. Hosts go round-robin across all leaves, spread across pods.
func (g *Graph) buildFatTree(P, Lp, Sp, C, hosts int) {
	leaves := P * Lp
	spines := P * Sp
	g.adj = make([][]Peer, leaves+spines+C)
	leaf := func(p, l int) int { return p*Lp + l }
	spine := func(p, s int) int { return leaves + p*Sp + s }
	core := func(c int) int { return leaves + spines + c }
	for p := 0; p < P; p++ {
		for l := 0; l < Lp; l++ {
			for s := 0; s < Sp; s++ {
				g.addEdge(leaf(p, l), spine(p, s))
			}
		}
	}
	for p := 0; p < P; p++ {
		for s := 0; s < Sp; s++ {
			for c := 0; c < C; c++ {
				g.addEdge(spine(p, s), core(c))
			}
		}
	}
	for h := 0; h < hosts; h++ {
		// Spread consecutive hosts across pods first, then across a pod's
		// leaves, so the default two hosts land in different pods and the
		// default path exercises all three tiers.
		p := h % P
		l := (h / P) % Lp
		g.addHost(leaf(p, l))
	}
}

// buildRandom wires a seeded random spanning tree over n switches plus
// extra edges (skipping duplicates and self-loops best-effort). Hosts go on
// evenly spaced switches.
func (g *Graph) buildRandom(n, extra int, seed int64, hosts int) {
	g.adj = make([][]Peer, n)
	rng := rand.New(rand.NewSource(seed))
	have := make(map[[2]int]bool, n+extra)
	key := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.addEdge(u, v)
		have[key(u, v)] = true
	}
	for e := 0; e < extra && n > 2; e++ {
		for attempt := 0; attempt < 8; attempt++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b || have[key(a, b)] {
				continue
			}
			g.addEdge(a, b)
			have[key(a, b)] = true
			break
		}
	}
	for h := 0; h < hosts; h++ {
		sw := 0
		if hosts > 1 {
			sw = h * (n - 1) / (hosts - 1)
		}
		g.addHost(sw)
	}
}

// checkConnected verifies every switch is reachable from switch 0.
func (g *Graph) checkConnected() error {
	n := len(g.adj)
	if n == 0 {
		return fmt.Errorf("topo: empty graph")
	}
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, p := range g.adj[u] {
			if p.Switch >= 0 && !seen[p.Switch] {
				seen[p.Switch] = true
				count++
				queue = append(queue, p.Switch)
			}
		}
	}
	if count != n {
		return fmt.Errorf("topo: graph not connected: reached %d of %d switches", count, n)
	}
	return nil
}

// EdgeKey identifies an undirected switch-switch edge in canonical
// (low, high) order; build one with MakeEdgeKey so lookups are
// direction-independent.
type EdgeKey struct {
	A, B int
}

// MakeEdgeKey canonicalizes the endpoint order.
func MakeEdgeKey(a, b int) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey{A: a, B: b}
}

// EdgePorts reports the port numbers on either end of the a↔b edge
// (pa on switch a, pb on switch b). ok is false when no such edge exists.
// Builders never wire parallel edges, so the pair is unique.
func (g *Graph) EdgePorts(a, b int) (pa, pb uint16, ok bool) {
	if a < 0 || a >= len(g.adj) || b < 0 || b >= len(g.adj) {
		return 0, 0, false
	}
	for i, p := range g.adj[a] {
		if p.Switch == b {
			return uint16(i + 1), p.Port, true
		}
	}
	return 0, 0, false
}

// computeRoutes fills the pristine (no failed edges) routing table.
func (g *Graph) computeRoutes() {
	g.routes = g.routesExcluding(nil)
}

// routesExcluding runs one BFS per host from its attachment switch over the
// graph minus the failed edges, recording at every switch the port leading
// one hop closer to the host (0 where the host is unreachable). Neighbour
// iteration is in port order, so equal-length paths tie-break the same way
// on every run — and the masked table agrees with a fresh Build of the
// reduced topology wherever both have routes.
func (g *Graph) routesExcluding(failed map[EdgeKey]bool) [][]uint16 {
	n := len(g.adj)
	routes := make([][]uint16, len(g.hosts))
	for h, host := range g.hosts {
		next := make([]uint16, n)
		next[host.Switch] = host.Port
		seen := make([]bool, n)
		seen[host.Switch] = true
		queue := []int{host.Switch}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, p := range g.adj[u] {
				if p.Switch < 0 || seen[p.Switch] {
					continue
				}
				if failed[MakeEdgeKey(u, p.Switch)] {
					continue
				}
				seen[p.Switch] = true
				// From the neighbour, the route toward the host is the port
				// back across this edge to u.
				next[p.Switch] = p.Port
				queue = append(queue, p.Switch)
			}
		}
		routes[h] = next
	}
	return routes
}

// RouteTable is one next-hop table over the graph: the pristine table, or a
// failure-masked one from RoutesExcluding. Tables are immutable snapshots —
// recovery swaps whole tables rather than patching entries.
type RouteTable struct {
	g      *Graph
	routes [][]uint16 // [host][switch] next-hop port, 0 = unreachable
}

// Routes returns the pristine routing table (shared, not copied).
func (g *Graph) Routes() *RouteTable {
	return &RouteTable{g: g, routes: g.routes}
}

// RoutesExcluding computes the routing table of the graph with the failed
// edges removed. Switches cut off from a host get no route toward it
// (NextHopPort reports ok=false), which the controller surfaces as a
// blackhole rather than a stale path.
func (g *Graph) RoutesExcluding(failed map[EdgeKey]bool) *RouteTable {
	if len(failed) == 0 {
		return g.Routes()
	}
	return &RouteTable{g: g, routes: g.routesExcluding(failed)}
}

// NextHopPort reports switch sw's port one hop closer to host h under this
// table. On the host's attachment switch it is the host port itself.
func (t *RouteTable) NextHopPort(sw, h int) (uint16, bool) {
	if h < 0 || h >= len(t.routes) || sw < 0 || sw >= len(t.g.adj) {
		return 0, false
	}
	p := t.routes[h][sw]
	return p, p != 0
}

// PathFrom walks this table's path from switch sw (entered on port entry)
// toward host dst, returning every hop in order. Each table is one BFS tree,
// so the walk terminates in at most NumSwitches steps.
func (t *RouteTable) PathFrom(sw int, entry uint16, dst int) ([]Hop, error) {
	var hops []Hop
	cur, curEntry := sw, entry
	for range t.g.adj { // bounded by the switch count: BFS routes are loop-free
		out, ok := t.NextHopPort(cur, dst)
		if !ok {
			return nil, fmt.Errorf("topo: no route from switch %d to host %d", cur, dst)
		}
		hops = append(hops, Hop{Switch: cur, Entry: curEntry, Exit: out})
		peer, ok := t.g.PeerOf(cur, out)
		if !ok {
			return nil, fmt.Errorf("topo: switch %d has no port %d", cur, out)
		}
		if peer.Host >= 0 {
			if peer.Host != dst {
				return nil, fmt.Errorf("topo: route from switch %d leads to host %d, want %d", sw, peer.Host, dst)
			}
			return hops, nil
		}
		cur, curEntry = peer.Switch, peer.Port
	}
	return nil, fmt.Errorf("topo: routing loop walking from switch %d to host %d", sw, dst)
}

// NumSwitches reports the switch count.
func (g *Graph) NumSwitches() int { return len(g.adj) }

// NumPorts reports switch i's port count (ports are 1..NumPorts).
func (g *Graph) NumPorts(i int) int { return len(g.adj[i]) }

// PeerOf reports what switch i's port p connects to.
func (g *Graph) PeerOf(i int, p uint16) (Peer, bool) {
	if int(p) < 1 || int(p) > len(g.adj[i]) {
		return Peer{}, false
	}
	return g.adj[i][p-1], true
}

// Hosts reports the attached hosts.
func (g *Graph) Hosts() []Host { return g.hosts }

// HostByAddr maps a destination address to its host index.
func (g *Graph) HostByAddr(a netip.Addr) (int, bool) {
	i, ok := g.addrIndex[a]
	return i, ok
}

// NextHopPort reports switch sw's port one hop closer to host h. On the
// host's attachment switch it is the host port itself.
func (g *Graph) NextHopPort(sw, h int) (uint16, bool) {
	if h < 0 || h >= len(g.routes) || sw < 0 || sw >= len(g.adj) {
		return 0, false
	}
	p := g.routes[h][sw]
	return p, p != 0
}

// Hop is one switch on a routed path: the switch, the port the packet
// enters on, and the port it exits toward the destination.
type Hop struct {
	Switch int
	Entry  uint16
	Exit   uint16
}

// PathFrom walks the routed path from switch sw (entered on port entry)
// toward host dst, returning every hop in order. The walk follows the BFS
// tree, so it terminates in at most NumSwitches steps on a valid graph.
func (g *Graph) PathFrom(sw int, entry uint16, dst int) ([]Hop, error) {
	return g.Routes().PathFrom(sw, entry, dst)
}

// HostPath is PathFrom starting at a source host's attachment switch: the
// switch chain a packet from src to dst traverses.
func (g *Graph) HostPath(src, dst int) ([]Hop, error) {
	if src < 0 || src >= len(g.hosts) || dst < 0 || dst >= len(g.hosts) {
		return nil, fmt.Errorf("topo: host index out of range (%d, %d)", src, dst)
	}
	h := g.hosts[src]
	return g.PathFrom(h.Switch, h.Port, dst)
}
