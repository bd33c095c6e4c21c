package pcie

import (
	"errors"
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Topology describes the fabric shape between the root complex and
// the endpoints. The zero value is the paper's flat tree: a single
// switch with every endpoint attached directly. Levels == 2 inserts a
// rank of leaf switches below the root switch, with Fanout endpoints
// hanging off each leaf — traffic between the host and an endpoint
// then crosses three links (RC-root, root-leaf, leaf-EP) instead of
// two, and endpoints under different leaves contend only on the
// shared RC-root segment.
type Topology struct {
	// Levels is the switch depth: 0 or 1 = flat, 2 = root + leaves.
	Levels int
	// Fanout is the number of endpoints per leaf switch (Levels == 2
	// only; the last leaf may be partially filled).
	Fanout int
}

// Flat reports whether the topology is the single-switch shape.
func (t Topology) Flat() bool { return t.Levels <= 1 }

// Validate rejects shapes the tree builder cannot construct.
func (t Topology) Validate() error {
	switch {
	case t.Levels < 0 || t.Levels > 2:
		return fmt.Errorf("topology levels %d (want 0, 1, or 2)", t.Levels)
	case t.Levels == 2 && t.Fanout < 1:
		return fmt.Errorf("2-level topology needs fanout >= 1")
	case t.Levels < 2 && t.Fanout != 0:
		return fmt.Errorf("fanout %d requires levels = 2", t.Fanout)
	}
	return nil
}

// LeafCount returns how many leaf-level attachment points serve n
// endpoints: the leaf switch count for a 2-level tree, or n itself
// for the flat shape (each endpoint attaches directly to the switch).
func (t Topology) LeafCount(n int) int {
	if t.Flat() {
		return n
	}
	return (n + t.Fanout - 1) / t.Fanout
}

// LeafOf returns the leaf-level attachment point of endpoint i.
func (t Topology) LeafOf(i int) int {
	if t.Flat() {
		return i
	}
	return i / t.Fanout
}

// Config parameterizes the whole PCIe subsystem. Defaults follow the
// paper's Table II (RC 150 ns, Switch 50 ns).
type Config struct {
	// Link applies to both the RC-switch and switch-EP links.
	Link LinkConfig

	// Topology selects the fabric shape (zero value = flat switch).
	Topology Topology

	// TLPHeaderBytes is the per-TLP wire overhead: framing + header +
	// LCRC (default 24).
	TLPHeaderBytes int

	// Processing latencies (store-and-forward, per hop).
	RCLatency     sim.Tick // default 150 ns
	SwitchLatency sim.Tick // default 50 ns
	EPLatency     sim.Tick // default 20 ns

	// Initiation intervals: one TLP per II per direction per hop.
	RCProcII     sim.Tick // default 16 ns
	SwitchProcII sim.Tick // default 10 ns
	EPProcII     sim.Tick // default 4 ns

	// Receiver buffer sizes gating the credit flow control.
	RCBufBytes     int // default 8192
	SwitchBufBytes int // default 2048
	EPBufBytes     int // default 16384

	// TxQueueDepth bounds TLPs queued at each bridge before admission
	// backpressure (default 32).
	TxQueueDepth int

	// CutThrough makes hops begin forwarding once a TLP's header has
	// arrived instead of store-and-forward (an ablation of the
	// paper's S&F pipeline; reduces per-hop latency for large TLPs).
	CutThrough bool
}

func (c *Config) setDefaults() {
	if c.TLPHeaderBytes == 0 {
		c.TLPHeaderBytes = 24
	}
	if c.RCLatency == 0 {
		c.RCLatency = 150 * sim.Nanosecond
	}
	if c.SwitchLatency == 0 {
		c.SwitchLatency = 50 * sim.Nanosecond
	}
	if c.EPLatency == 0 {
		c.EPLatency = 20 * sim.Nanosecond
	}
	if c.RCProcII == 0 {
		c.RCProcII = 16 * sim.Nanosecond
	}
	if c.SwitchProcII == 0 {
		c.SwitchProcII = 10 * sim.Nanosecond
	}
	if c.EPProcII == 0 {
		c.EPProcII = 4 * sim.Nanosecond
	}
	if c.RCBufBytes == 0 {
		c.RCBufBytes = 8192
	}
	if c.SwitchBufBytes == 0 {
		c.SwitchBufBytes = 2048
	}
	if c.EPBufBytes == 0 {
		c.EPBufBytes = 16384
	}
	if c.TxQueueDepth == 0 {
		c.TxQueueDepth = 32
	}
	if c.Link.PropDelay == 0 {
		c.Link.PropDelay = 5 * sim.Nanosecond
	}
}

// Resolved returns the configuration with every zero field replaced
// by its default — the values an assembled Tree actually runs with.
// Analytic models derive their constants from this so they can never
// drift from the timing simulation's defaults.
func (c Config) Resolved() Config {
	c.setDefaults()
	return c
}

// Validate checks the resolved configuration: the link has lanes and
// a lane rate, no TLP header, buffer or queue depth is negative, and
// the topology is one NewTree builds. Each error names its field.
// Latencies and initiation intervals are unsigned sim.Ticks, so none
// can be negative.
func (c Config) Validate() error {
	c.setDefaults()
	switch {
	case c.Link.Lanes <= 0:
		return fmt.Errorf("Link.Lanes %d is not positive", c.Link.Lanes)
	case !(c.Link.LaneGbps > 0):
		return fmt.Errorf("Link.LaneGbps %g is not positive", c.Link.LaneGbps)
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"TLPHeaderBytes", c.TLPHeaderBytes},
		{"RCBufBytes", c.RCBufBytes},
		{"SwitchBufBytes", c.SwitchBufBytes},
		{"EPBufBytes", c.EPBufBytes},
		{"TxQueueDepth", c.TxQueueDepth},
	} {
		if f.n < 0 {
			return fmt.Errorf("%s %d is negative", f.name, f.n)
		}
	}
	return c.Topology.Validate()
}

// Tree is an assembled PCIe fabric: RC <-> Switch <-> EP[i] for the
// flat shape, or RC <-> Switch (root) <-> Leaves[j] <-> EP[i] for the
// 2-level shape.
type Tree struct {
	RC     *RootComplex
	Switch *Switch   // the root switch
	Leaves []*Switch // leaf switches (2-level topologies only)
	EPs    []*Endpoint
	cfg    Config
}

// NewTree builds the fabric with one endpoint per element of epRanges;
// each endpoint claims its address ranges for downstream routing.
func NewTree(name string, eq *sim.EventQueue, reg *stats.Registry, cfg Config, epRanges ...[]mem.AddrRange) *Tree {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("pcie %s: %v", name, err))
	}
	cfg.setDefaults()
	if len(epRanges) == 0 {
		panic(fmt.Sprintf("pcie: %s: at least one endpoint required", name))
	}

	t := &Tree{cfg: cfg}
	pool := &tlpPool{}
	t.RC = newRootComplex(name+".rc", eq, reg, cfg, pool)
	t.Switch = newSwitch(name+".switch", eq, reg, cfg)
	t.Switch.epPort = make([]int, len(epRanges))

	// RC -> switch and switch -> RC conns.
	t.RC.down = newConn(name+".rc2sw", eq, cfg, t.Switch, cfg.SwitchBufBytes)
	t.RC.down.OnDrain = t.RC.wakeHost
	t.Switch.fromRC = t.RC.down
	t.Switch.up = newConn(name+".sw2rc", eq, cfg, t.RC, cfg.RCBufBytes)

	if cfg.Topology.Flat() {
		for i, ranges := range epRanges {
			ep := newEndpoint(fmt.Sprintf("%s.ep%d", name, i), i, eq, reg, cfg, pool, ranges)
			down := newConn(fmt.Sprintf("%s.sw2ep%d", name, i), eq, cfg, ep, cfg.EPBufBytes)
			ep.up = newConn(fmt.Sprintf("%s.ep%d2sw", name, i), eq, cfg, t.Switch, cfg.SwitchBufBytes)
			ep.up.OnDrain = ep.wakeDev
			t.Switch.downs = append(t.Switch.downs, down)
			t.Switch.epPort[i] = i
			for _, r := range ranges {
				t.Switch.addrMap.Add(r, i)
			}
			t.EPs = append(t.EPs, ep)
		}
		return t
	}

	// 2-level shape: a rank of leaf switches between the root switch
	// and the endpoints. The root's down ports address leaves; each
	// leaf's down ports address its local endpoints. Direction
	// detection is unchanged — a leaf's fromRC is its ingress conn
	// from the root, so root-originated traffic reads as downstream.
	nLeaf := cfg.Topology.LeafCount(len(epRanges))
	for j := 0; j < nLeaf; j++ {
		leaf := newSwitch(fmt.Sprintf("%s.leaf%d", name, j), eq, reg, cfg)
		leaf.epPort = make([]int, len(epRanges))
		down := newConn(fmt.Sprintf("%s.sw2l%d", name, j), eq, cfg, leaf, cfg.SwitchBufBytes)
		leaf.fromRC = down
		leaf.up = newConn(fmt.Sprintf("%s.l%d2sw", name, j), eq, cfg, t.Switch, cfg.SwitchBufBytes)
		t.Switch.downs = append(t.Switch.downs, down)
		t.Leaves = append(t.Leaves, leaf)
	}
	for i, ranges := range epRanges {
		j := cfg.Topology.LeafOf(i)
		leaf := t.Leaves[j]
		ep := newEndpoint(fmt.Sprintf("%s.ep%d", name, i), i, eq, reg, cfg, pool, ranges)
		down := newConn(fmt.Sprintf("%s.l%d2ep%d", name, j, i), eq, cfg, ep, cfg.EPBufBytes)
		ep.up = newConn(fmt.Sprintf("%s.ep%d2l%d", name, i, j), eq, cfg, leaf, cfg.SwitchBufBytes)
		ep.up.OnDrain = ep.wakeDev
		leaf.downs = append(leaf.downs, down)
		port := len(leaf.downs) - 1
		leaf.epPort[i] = port
		t.Switch.epPort[i] = j
		for _, r := range ranges {
			leaf.addrMap.Add(r, port)
			t.Switch.addrMap.Add(r, j)
		}
		t.EPs = append(t.EPs, ep)
	}
	return t
}

// Audit reports the state a fabric must not hold once its run has
// drained: a link whose receiver credit is not back at capacity, that
// still queues TLPs or that is transmitting, a switch that received
// more or fewer TLPs than it forwarded, a root complex or endpoint
// packet queue still holding packets or blocked, and TLPs not back in
// the fabric's pool.
func (t *Tree) Audit() error {
	conns := []*conn{t.RC.down, t.Switch.up}
	conns = append(conns, t.Switch.downs...)
	for _, l := range t.Leaves {
		conns = append(conns, l.up)
		conns = append(conns, l.downs...)
	}
	errs := []error{t.RC.memQ.Audit(t.RC.name + ".memq"), t.RC.respQ.Audit(t.RC.name + ".respq")}
	for _, ep := range t.EPs {
		conns = append(conns, ep.up)
		errs = append(errs, ep.devRespQ.Audit(ep.name+".devrespq"), ep.busReqQ.Audit(ep.name+".busreqq"))
	}
	for _, c := range conns {
		errs = append(errs, c.audit())
	}
	errs = append(errs, t.Switch.audit())
	for _, l := range t.Leaves {
		errs = append(errs, l.audit())
	}
	if p := t.RC.pool; len(p.free) != p.made {
		errs = append(errs, fmt.Errorf("%s: %d of %d TLPs not back in the pool", t.RC.name, p.made-len(p.free), p.made))
	}
	return errors.Join(errs...)
}

// EP returns endpoint i.
func (t *Tree) EP(i int) *Endpoint { return t.EPs[i] }

// Config returns the tree's resolved configuration.
func (t *Tree) Config() Config { return t.cfg }
