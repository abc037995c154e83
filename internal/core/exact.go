package core

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/geometry"
	"repro/internal/safearea"
	"repro/internal/sim"
)

// ExactNode runs the paper's Exact BVC algorithm (§2.2) as a synchronous
// node:
//
//	Step 1: Byzantine-broadcast the input vector of every process (one EIG
//	        instance per process, f+1 rounds), after which every correct
//	        process holds the identical multiset S of n vectors.
//	Step 2: decide the deterministic point of Γ(S).
//
// Correct for n ≥ max(3f+1, (d+1)f+1) — Theorem 3.
type ExactNode struct {
	params Params
	self   sim.ProcID
	multi  *broadcast.MultiEIG

	s        *geometry.Multiset
	decision geometry.Vector
	err      error
}

var _ sim.SyncNode = (*ExactNode)(nil)

// NewExactNode builds the node for process self with the given input.
func NewExactNode(params Params, self sim.ProcID, input geometry.Vector) (*ExactNode, error) {
	params = params.WithDefaults()
	if err := params.Validate(VariantExactSync); err != nil {
		return nil, err
	}
	if err := params.CheckInput(input, false); err != nil {
		return nil, err
	}
	if int(self) < 0 || int(self) >= params.N {
		return nil, fmt.Errorf("core: self=%d out of range n=%d", self, params.N)
	}
	def := geometry.NewVector(params.D)
	multi, err := broadcast.NewMultiEIG(params.N, params.F, self, input, def)
	if err != nil {
		return nil, err
	}
	return &ExactNode{params: params, self: self, multi: multi}, nil
}

// Outbox implements sim.SyncNode.
func (e *ExactNode) Outbox(r int) map[sim.ProcID]sim.Message { return e.multi.Outbox(r) }

// Deliver implements sim.SyncNode: after the broadcast stage completes, the
// decision is the deterministic point of Γ(S).
func (e *ExactNode) Deliver(r int, inbox map[sim.ProcID]sim.Message) {
	e.multi.Deliver(r, inbox)
	if !e.multi.Done() || e.decision != nil || e.err != nil {
		return
	}
	decisions := e.multi.Decisions()
	s := geometry.NewMultiset(e.params.D)
	for _, v := range decisions {
		if err := s.Add(v); err != nil {
			e.err = err
			return
		}
	}
	e.s = s
	// The engine's memo keys on the canonical multiset: all n correct
	// processes hold the identical agreed S, so only the first to reach
	// this point pays for the lex-min LP.
	pt, err := e.params.engine().SafePoint(s, e.params.F, e.params.Method)
	if err != nil {
		// Γ(S) is non-empty whenever n ≥ (d+1)f+1 (Lemma 1), which
		// Validate enforced; reaching this indicates a real failure.
		e.err = fmt.Errorf("core: exact BVC decision: %w", err)
		return
	}
	e.decision = pt
}

// Done implements sim.SyncNode.
func (e *ExactNode) Done() bool { return e.decision != nil || e.err != nil }

// Decision returns the decided vector once the algorithm has terminated.
func (e *ExactNode) Decision() (geometry.Vector, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.decision == nil {
		return nil, fmt.Errorf("core: exact BVC not terminated")
	}
	return e.decision.Clone(), nil
}

// CoordWiseNode is the baseline the paper's introduction warns about: it
// agrees on S exactly like ExactNode, but then runs scalar consensus per
// dimension — deciding, in each dimension l, the (f+1)-th smallest of the
// agreed values. Each coordinate individually satisfies scalar validity,
// yet the assembled vector can fall outside the convex hull of the correct
// inputs (experiment E8 reproduces the paper's probability-vector
// counterexample).
type CoordWiseNode struct {
	params Params
	multi  *broadcast.MultiEIG

	decision geometry.Vector
	err      error
}

var _ sim.SyncNode = (*CoordWiseNode)(nil)

// NewCoordWiseNode builds the coordinate-wise baseline node. Note the
// weaker requirement n ≥ 3f+1 regardless of d — the seeming advantage over
// Exact BVC's (d+1)f+1 is precisely what the broken validity pays for.
func NewCoordWiseNode(params Params, self sim.ProcID, input geometry.Vector) (*CoordWiseNode, error) {
	params = params.WithDefaults()
	if params.D < 1 {
		return nil, fmt.Errorf("core: dimension d=%d, want ≥ 1", params.D)
	}
	if params.F < 0 {
		return nil, fmt.Errorf("core: fault bound f=%d, want ≥ 0", params.F)
	}
	if params.N < 3*params.F+1 {
		return nil, fmt.Errorf("core: scalar consensus requires n ≥ 3f+1, got n=%d f=%d", params.N, params.F)
	}
	if int(self) < 0 || int(self) >= params.N {
		return nil, fmt.Errorf("core: self=%d out of range n=%d", self, params.N)
	}
	if err := params.CheckInput(input, false); err != nil {
		return nil, err
	}
	def := geometry.NewVector(params.D)
	multi, err := broadcast.NewMultiEIG(params.N, params.F, self, input, def)
	if err != nil {
		return nil, err
	}
	return &CoordWiseNode{params: params, multi: multi}, nil
}

// Outbox implements sim.SyncNode.
func (c *CoordWiseNode) Outbox(r int) map[sim.ProcID]sim.Message { return c.multi.Outbox(r) }

// Deliver implements sim.SyncNode.
func (c *CoordWiseNode) Deliver(r int, inbox map[sim.ProcID]sim.Message) {
	c.multi.Deliver(r, inbox)
	if !c.multi.Done() || c.decision != nil {
		return
	}
	decisions := c.multi.Decisions()
	out := geometry.NewVector(c.params.D)
	for l := 0; l < c.params.D; l++ {
		col := geometry.NewMultiset(1)
		for _, v := range decisions {
			if err := col.Add(geometry.Vector{v[l]}); err != nil {
				c.err = err
				return
			}
		}
		lo, _, err := safearea.Interval(col, c.params.F)
		if err != nil {
			c.err = err
			return
		}
		out[l] = lo // scalar-valid per dimension, yet not vector-valid
	}
	c.decision = out
}

// Done implements sim.SyncNode.
func (c *CoordWiseNode) Done() bool { return c.decision != nil || c.err != nil }

// Decision returns the decided vector once terminated.
func (c *CoordWiseNode) Decision() (geometry.Vector, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.decision == nil {
		return nil, fmt.Errorf("core: coordinate-wise consensus not terminated")
	}
	return c.decision.Clone(), nil
}
