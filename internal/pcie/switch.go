package pcie

import (
	"fmt"

	"accesys/internal/mem"
	"accesys/internal/sim"
	"accesys/internal/stats"
)

// Switch routes TLPs between the root complex and the endpoints. It is
// store-and-forward: a TLP is processed (fixed latency + initiation
// interval) only after full reception, and the ingress buffer credit is
// held until the TLP has completely left on the egress link.
type Switch struct {
	name string
	eq   *sim.EventQueue
	cfg  Config

	// Egress conns, set during tree construction.
	up    *conn   // switch -> RC
	downs []*conn // switch -> EP[i]
	// fromRC identifies the ingress conn carrying RC -> switch traffic
	// so direction can be told apart.
	fromRC *conn

	addrMap mem.AddrMap // downstream request routing by address
	// epPort maps a global endpoint index to the local down-port that
	// reaches it (identity on a flat switch; the leaf port on a 2-level
	// root; the attachment port on a leaf) — completion routing uses it
	// because completions carry endpoint indexes, not addresses.
	epPort []int

	upPipe   pipe
	downPipe pipe

	forwarded *stats.Counter
	bytes     *stats.Counter
	// in and out count the TLPs that entered the switch and that left
	// it on an egress link; a drained switch has forwarded them all.
	// They are kept apart from the stats, which a caller may reset.
	in, out uint64
}

func newSwitch(name string, eq *sim.EventQueue, reg *stats.Registry, cfg Config) *Switch {
	s := &Switch{name: name, eq: eq, cfg: cfg,
		upPipe:   newPipe(eq, name+".uppipe", cfg.SwitchProcII, cfg.SwitchLatency),
		downPipe: newPipe(eq, name+".downpipe", cfg.SwitchProcII, cfg.SwitchLatency)}
	g := reg.Group(name)
	s.forwarded = g.Counter("tlps", "TLPs forwarded")
	s.bytes = g.Counter("bytes", "TLP bytes forwarded")
	return s
}

// deliverTLP implements receiver: a fully received TLP enters the
// processing pipeline and is forwarded after SwitchLatency; the
// pipeline accepts one TLP per SwitchProcII per direction.
func (s *Switch) deliverTLP(from *conn, t *TLP) {
	upstream := from != s.fromRC
	s.forwarded.Inc()
	s.in++
	s.bytes.Add(uint64(t.Bytes))

	t.stage = stageForward
	t.fwd = s
	t.fwdFrom = from
	t.fwdUp = upstream
	p := &s.downPipe
	if upstream {
		p = &s.upPipe
	}
	p.enter(t, s.eq.Now())
}

func (s *Switch) route(t *TLP, upstream bool) *conn {
	if upstream {
		return s.up
	}
	if t.Kind == Cpl {
		return s.downs[s.epPort[t.DstEP]]
	}
	target, ok := s.addrMap.Find(t.Pkt.Addr)
	if !ok {
		panic(fmt.Sprintf("pcie: %s: no endpoint claims %v", s.name, t.Pkt))
	}
	return s.downs[target]
}

// audit reports a switch that did not forward every TLP it received.
func (s *Switch) audit() error {
	if s.in != s.out {
		return fmt.Errorf("%s: %d TLPs in, %d out", s.name, s.in, s.out)
	}
	return nil
}

var _ receiver = (*Switch)(nil)
