package service

import (
	"fmt"

	"repro/internal/aad"
	"repro/internal/broadcast"
	"repro/internal/sim"
	"repro/internal/wire"
)

// The service path speaks the binary v2 frame layout (internal/wire,
// docs/WIRE_FORMAT.md): frames are instance-multiplexed and the codec
// below flattens the AAD exchange messages into wire.ConsensusMsg, which
// encodes to a fixed layout with no reflection and no per-frame type
// preamble.

// One rule covers every vector on this path: the reliable-broadcast
// instance that tallies a value copies it once, on first sight, and every
// message the protocol emits afterwards references that never-rewritten
// copy. Nothing else copies — the codec only re-labels, both ways.

// toWire flattens an AAD message into the wire form. w aliases m's vector,
// which is the exchange's own copy; the sender encodes w at once.
func toWire(m *aad.Msg, w *wire.ConsensusMsg) error {
	switch m.Kind {
	case aad.KindRBC:
		w.Kind = wire.ConsensusRBC
		w.Phase = uint8(m.RBC.Phase)
		w.Origin = uint32(m.RBC.Origin)
		w.Round = uint32(m.RBC.Tag)
		w.Value = m.RBC.Value
	case aad.KindReport:
		w.Kind = wire.ConsensusReport
		w.Phase = 0
		w.Origin = uint32(m.Report.Origin)
		w.Round = uint32(m.Report.Round)
		w.Value = nil
	default:
		return fmt.Errorf("service: unknown aad message kind %d", m.Kind)
	}
	return nil
}

// fromWire rebuilds the AAD message from its wire form. The message aliases
// w.Value — for the service's readers a slice of the burst chunk, written
// once and handed on with the burst — so it stays good while anyone holds it.
func fromWire(w *wire.ConsensusMsg) (aad.Msg, error) {
	switch w.Kind {
	case wire.ConsensusRBC:
		return aad.Msg{Kind: aad.KindRBC, RBC: broadcast.RBCMsg{
			Phase:  broadcast.RBCPhase(w.Phase),
			Origin: sim.ProcID(w.Origin),
			Tag:    int(w.Round),
			Value:  w.Value,
		}}, nil
	case wire.ConsensusReport:
		return aad.Msg{Kind: aad.KindReport, Report: aad.ReportMsg{
			Round:  int(w.Round),
			Origin: sim.ProcID(w.Origin),
		}}, nil
	default:
		return aad.Msg{}, fmt.Errorf("service: unknown consensus wire kind %d", w.Kind)
	}
}
