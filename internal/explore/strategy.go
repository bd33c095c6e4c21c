package explore

// The two launch strategies behind one interface. Both consume the
// Search's Sample/Screen/EvalTiming primitives, so adding a smarter
// searcher (hill-climb, bandit, RL) is a new file, not a new engine.

import "fmt"

// Strategy drives one search to budget exhaustion (or space
// exhaustion, whichever lands first).
type Strategy interface {
	Name() string
	Run(s *Search) error
}

func strategyFor(name string) (Strategy, error) {
	switch name {
	case "", "random":
		return random{}, nil
	case "halving":
		return halving{}, nil
	}
	return nil, fmt.Errorf("explore: unknown strategy %q", name)
}

// random is seeded random search with analytic pre-screening: each
// generation samples Generation fresh feasible points, screens them
// analytically for free, and promotes only the top Promote fraction
// to exact timing. Simple, embarrassingly restartable (the cache
// makes re-runs warm), and a strong baseline on smooth objectives.
type random struct{}

func (random) Name() string { return "random" }

func (random) Run(s *Search) error {
	for !s.budget.Exhausted() {
		gen := s.Sample(s.genSize)
		if len(gen) == 0 {
			return nil // space drained
		}
		cands, err := s.Screen(gen)
		if err != nil {
			return err
		}
		ranked := s.Rank(cands)
		k := ceilFrac(len(ranked), s.promote)
		if err := s.EvalTiming(ranked[:k]); err != nil {
			return err
		}
	}
	return nil
}

// halving is successive halving over the fidelity ladder: sample one
// large population sized so that keeping 1/eta lands the exact-timing
// rung at the point budget, screen it analytically, and spend exact
// simulation only on the survivors. Only the exact rung charges the
// budget, so the screened population can be budget*eta wide without
// starving it.
type halving struct{}

func (halving) Name() string { return "halving" }

func (halving) Run(s *Search) error {
	pop := s.budget.Points
	if pop <= 0 {
		pop = defaultGeneration // wall budgets have no natural count
	}
	gen := s.Sample(pop * s.eta)
	if len(gen) == 0 {
		return nil
	}
	cands, err := s.Screen(gen)
	if err != nil {
		return err
	}
	ranked := s.Rank(cands)
	return s.EvalTiming(ranked[:ceilDiv(len(ranked), s.eta)])
}
