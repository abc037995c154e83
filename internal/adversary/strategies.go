package adversary

import (
	"math/rand"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/sim"
)

// NewEIGEquivocator returns a synchronous adversary for the EIG-based
// algorithms (Exact BVC, coordinate-wise baseline) run by process `self`:
// in round 1 it announces a different input vector to every recipient
// (valueFor decides which), and in later rounds it relays per-recipient
// contradictory values for the other instances it should be forwarding.
func NewEIGEquivocator(n, rounds int, self sim.ProcID, valueFor func(to sim.ProcID) geometry.Vector) *FuncSync {
	return &FuncSync{
		Rounds: rounds,
		Fn: func(r int) map[sim.ProcID]sim.Message {
			out := make(map[sim.ProcID]sim.Message, n)
			for to := 0; to < n; to++ {
				toID := sim.ProcID(to)
				v := valueFor(toID)
				msg := broadcast.EIGRoundMsg{Round: r}
				if r == 1 {
					// Equivocated own-instance announcement.
					msg.Instances = []broadcast.EIGInstanceRelays{{
						Sender: self,
						Relays: []broadcast.EIGRelay{{Path: nil, Value: v}},
					}}
				} else {
					// Lie about every other instance, differently per
					// recipient.
					for s := 0; s < n; s++ {
						sid := sim.ProcID(s)
						if sid == self {
							continue
						}
						msg.Instances = append(msg.Instances, broadcast.EIGInstanceRelays{
							Sender: sid,
							Relays: []broadcast.EIGRelay{{Path: []sim.ProcID{sid}, Value: v}},
						})
					}
				}
				out[toID] = msg
			}
			return out
		},
	}
}

// NewEIGRandom returns a synchronous adversary that sprays random relays
// with random (valid-shape) paths and values drawn from box, different for
// every recipient and round.
func NewEIGRandom(n, d, rounds int, box geometry.Box, rng *rand.Rand) *FuncSync {
	return &FuncSync{
		Rounds: rounds,
		Fn: func(r int) map[sim.ProcID]sim.Message {
			out := make(map[sim.ProcID]sim.Message, n)
			for to := 0; to < n; to++ {
				msg := broadcast.EIGRoundMsg{Round: r}
				relayCount := 1 + rng.Intn(3)
				for k := 0; k < relayCount; k++ {
					sender := sim.ProcID(rng.Intn(n))
					var path []sim.ProcID
					if r > 1 {
						path = []sim.ProcID{sender}
						for len(path) < r-1 {
							next := sim.ProcID(rng.Intn(n))
							if !pathContains(path, next) {
								path = append(path, next)
							}
						}
					}
					msg.Instances = append(msg.Instances, broadcast.EIGInstanceRelays{
						Sender: sender,
						Relays: []broadcast.EIGRelay{{Path: path, Value: RandomVector(rng, box)}},
					})
				}
				out[sim.ProcID(to)] = msg
			}
			return out
		},
	}
}

// NewStateEquivocator returns a synchronous adversary for the restricted
// round structure: every round it sends state A to recipients below split
// and state B to the rest.
func NewStateEquivocator(n, rounds int, split int, a, b geometry.Vector) *FuncSync {
	return &FuncSync{
		Rounds: rounds,
		Fn: func(r int) map[sim.ProcID]sim.Message {
			out := make(map[sim.ProcID]sim.Message, n)
			for to := 0; to < n; to++ {
				v := b
				if to < split {
					v = a
				}
				out[sim.ProcID(to)] = core.StateMsg{Round: r, Value: v.Clone()}
			}
			return out
		},
	}
}

// NewStateLure returns a synchronous adversary for the restricted round
// structure that reports the fixed target as its state every round, trying
// to drag the correct states toward it.
func NewStateLure(n, rounds int, target geometry.Vector) *FuncSync {
	return &FuncSync{
		Rounds: rounds,
		Fn: func(r int) map[sim.ProcID]sim.Message {
			out := make(map[sim.ProcID]sim.Message, n)
			for to := 0; to < n; to++ {
				out[sim.ProcID(to)] = core.StateMsg{Round: r, Value: target.Clone()}
			}
			return out
		},
	}
}

// NewStateRandom returns a synchronous adversary for the restricted round
// structure sending random per-recipient states from box each round.
func NewStateRandom(n, rounds int, box geometry.Box, rng *rand.Rand) *FuncSync {
	return &FuncSync{
		Rounds: rounds,
		Fn: func(r int) map[sim.ProcID]sim.Message {
			out := make(map[sim.ProcID]sim.Message, n)
			for to := 0; to < n; to++ {
				out[sim.ProcID(to)] = core.StateMsg{Round: r, Value: RandomVector(rng, box)}
			}
			return out
		},
	}
}

// NewAsyncEquivocator returns an asynchronous adversary for the AAD-based
// algorithm run by process `self`: for every round up to rounds it
// RBC-INITs value a to recipients below split and value b to the rest, all
// up front, plus a matching flood of (legitimate-looking) reports. The RBC
// layer prevents conflicting deliveries; the exchange must still complete
// and stay correct.
func NewAsyncEquivocator(n, rounds int, self sim.ProcID, split int, a, b geometry.Vector) *FuncAsync {
	return &FuncAsync{
		OnInit: func(api sim.API) {
			for t := 1; t <= rounds; t++ {
				for to := 0; to < n; to++ {
					v := b
					if to < split {
						v = a
					}
					api.Send(sim.ProcID(to), aad.Msg{
						Kind: aad.KindRBC,
						RBC: broadcast.RBCMsg{
							Phase:  broadcast.RBCInit,
							Origin: self,
							Tag:    t,
							Value:  v.Clone(),
						},
					})
				}
			}
		},
	}
}

// NewAsyncLure returns an asynchronous adversary that honestly participates
// in dissemination (so its value is actually delivered and lands in the
// correct processes' B sets) but always advertises the fixed target as its
// state in every round — the strongest value-steering attack that remains
// protocol-compliant.
func NewAsyncLure(n, f, d, rounds int, self sim.ProcID, target geometry.Vector) (*FuncAsync, error) {
	coord, err := aad.NewCoordinator(n, f, self, d)
	if err != nil {
		return nil, err
	}
	coord.SetHorizon(rounds)
	// msgs is the coordinator's scratch, valid until its next call: every
	// message is handed on (by value) before the coordinator runs again.
	broadcastAll := func(api sim.API, msgs []aad.Msg) {
		for _, m := range msgs {
			api.Broadcast(m)
		}
	}
	fa := &FuncAsync{}
	fa.OnInit = func(api sim.API) {
		for t := 1; t <= rounds; t++ {
			msgs, err := coord.StartRound(t, target)
			if err != nil {
				return
			}
			broadcastAll(api, msgs)
		}
	}
	fa.OnMsg = func(api sim.API, from sim.ProcID, msg sim.Message) {
		m, ok := msg.(aad.Msg)
		if !ok {
			return
		}
		out, _ := coord.Handle(from, m)
		broadcastAll(api, out)
	}
	return fa, nil
}

// NewAsyncRandom returns an asynchronous adversary that replies to every
// delivery with a burst of random protocol messages: random-phase RBC
// messages with random origins/tags/values and random reports. Total
// output is budgeted so that two colluding random adversaries cannot
// ping-pong forever.
func NewAsyncRandom(n, rounds, burst int, box geometry.Box) *FuncAsync {
	phases := []broadcast.RBCPhase{broadcast.RBCInit, broadcast.RBCEcho, broadcast.RBCReady}
	budget := burst * rounds * n * 10
	spray := func(api sim.API) {
		if budget <= 0 {
			return
		}
		budget -= burst
		rng := api.Rand()
		for k := 0; k < burst; k++ {
			to := sim.ProcID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				origin := sim.ProcID(rng.Intn(n))
				if rng.Intn(4) == 0 {
					origin = api.ID() // sometimes its own instance
				}
				api.Send(to, aad.Msg{
					Kind: aad.KindRBC,
					RBC: broadcast.RBCMsg{
						Phase:  phases[rng.Intn(len(phases))],
						Origin: origin,
						Tag:    1 + rng.Intn(rounds),
						Value:  RandomVector(rng, box),
					},
				})
			} else {
				api.Send(to, aad.Msg{
					Kind: aad.KindReport,
					Report: aad.ReportMsg{
						Round:  1 + rng.Intn(rounds),
						Origin: sim.ProcID(rng.Intn(n)),
					},
				})
			}
		}
	}
	return &FuncAsync{
		OnInit: func(api sim.API) { spray(api) },
		OnMsg:  func(api sim.API, _ sim.ProcID, _ sim.Message) { spray(api) },
	}
}

func pathContains(path []sim.ProcID, id sim.ProcID) bool {
	for _, p := range path {
		if p == id {
			return true
		}
	}
	return false
}
