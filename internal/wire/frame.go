// Package wire defines the binary, instance-multiplexed frame layout the
// live service (internal/service) speaks between processes.
// docs/WIRE_FORMAT.md is the normative specification, and the golden test
// in frame_test.go pins it byte for byte; change either only together with
// the other and with a version bump.
//
// A frame is a 4-byte big-endian length prefix (counting everything after
// the prefix) followed by a fixed 10-byte header — version, frame kind,
// 8-byte instance id — and a kind-specific body. Sender identity is
// carried by the connection (established by the Hello frame), not by each
// frame. All integers are big-endian; vectors are IEEE-754 float64 bits.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// MaxFrameSize bounds a single frame; larger frames indicate corruption or
// abuse and are rejected before allocation.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// FrameVersion is the current frame-layout version; it occupies the first
// header byte of every frame. Peers speaking a different version are
// rejected at handshake (see docs/WIRE_FORMAT.md for the compatibility
// rules).
const FrameVersion = 2

// FrameKind discriminates the frame families of the service protocol.
type FrameKind uint8

// Frame kinds. Unknown kinds parse successfully (header plus opaque body)
// so receivers can skip them — the forward-compatibility rule that lets a
// newer peer add frame kinds without breaking an older one.
const (
	// FrameHello is the connection handshake: the dialer announces its
	// process id and the membership epoch it believes current (body:
	// uint32 id + uint64 epoch; a static mesh runs at epoch 0). Instance
	// id is 0.
	FrameHello FrameKind = 1
	// FrameConsensus carries one consensus-protocol message for the
	// instance named in the header (body: see ConsensusMsg).
	FrameConsensus FrameKind = 2
	// FrameGoodbye announces a graceful drain: the sender stops opening
	// instances and will close once in-flight instances finish. Empty
	// body, instance id 0. Receivers stop redialing a peer that said
	// goodbye.
	FrameGoodbye FrameKind = 3
	// FrameChallenge is the acceptor's half of the keyed handshake: in
	// reply to a nonce-carrying Hello it proves knowledge of the shared
	// key and challenges the dialer (body: uint64 server nonce + MACSize
	// HMAC over the dialer's nonce). Instance id is 0.
	FrameChallenge FrameKind = 4
	// FrameAuth is the dialer's proof closing the keyed handshake (body:
	// MACSize HMAC over the server nonce). Instance id is 0.
	FrameAuth FrameKind = 5
	// FrameEpochAnnounce propagates the next membership config through
	// the mesh (body: epoch u64, n u16, n × (len u16 + addr bytes)). The
	// shared auth key is never carried on the wire — key distribution is
	// the operator's job; the announce only names the epoch and its
	// address list. Instance id is 0.
	FrameEpochAnnounce FrameKind = 6
	// FrameEpochAck acknowledges an announced epoch (body: epoch u64).
	// Instance id is 0.
	FrameEpochAck FrameKind = 7
)

// MACSize is the byte length of the handshake HMAC (HMAC-SHA256).
const MACSize = 32

// FrameHeaderLen is the fixed header length following the length prefix.
const FrameHeaderLen = 10

// FrameHeader is the decoded fixed header of a v2 frame.
type FrameHeader struct {
	Version  uint8
	Kind     FrameKind
	Instance uint64
}

// Consensus body kinds (first body byte of a FrameConsensus frame),
// mirroring the two families of the AAD witness exchange.
const (
	// ConsensusRBC is a Bracha reliable-broadcast message:
	// phase(u8) origin(u32) round(u32) dim(u16) dim×float64.
	ConsensusRBC uint8 = 1
	// ConsensusReport is a witness report: round(u32) origin(u32).
	ConsensusReport uint8 = 2
)

// ConsensusMsg is the wire-level form of one consensus message. It is a
// flattened, dependency-free mirror of the aad/broadcast message structs
// (internal/service converts between the two), so the wire package imports
// no protocol package.
type ConsensusMsg struct {
	// Kind is ConsensusRBC or ConsensusReport.
	Kind uint8
	// Phase is the RBC phase (ConsensusRBC only).
	Phase uint8
	// Origin is the originating process id.
	Origin uint32
	// Round is the protocol round (the RBC tag for ConsensusRBC).
	Round uint32
	// Value is the carried vector (ConsensusRBC only; nil for reports).
	Value []float64
}

// appendFramePrefix reserves the length prefix and appends the header,
// returning the extended slice and the prefix offset for backfilling.
func appendFramePrefix(dst []byte, kind FrameKind, instance uint64) ([]byte, int) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, FrameVersion, byte(kind))
	dst = binary.BigEndian.AppendUint64(dst, instance)
	return dst, at
}

// backfillLen writes the length prefix for a frame started at offset at.
func backfillLen(dst []byte, at int) []byte {
	binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// AppendHello appends a keyless FrameHello announcing process id peer
// under membership epoch epoch.
func AppendHello(dst []byte, peer uint32, epoch uint64) []byte {
	dst, at := appendFramePrefix(dst, FrameHello, 0)
	dst = binary.BigEndian.AppendUint32(dst, peer)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	return backfillLen(dst, at)
}

// AppendHelloNonce appends the keyed-handshake variant of FrameHello:
// the process id, the dialer's epoch, then the dialer's challenge
// nonce. Acceptors distinguish the two Hello forms by body length
// (12 vs 20 bytes).
func AppendHelloNonce(dst []byte, peer uint32, epoch, nonce uint64) []byte {
	dst, at := appendFramePrefix(dst, FrameHello, 0)
	dst = binary.BigEndian.AppendUint32(dst, peer)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	dst = binary.BigEndian.AppendUint64(dst, nonce)
	return backfillLen(dst, at)
}

// AppendChallenge appends a FrameChallenge carrying the acceptor's nonce
// and its HMAC answering the dialer's Hello nonce. mac must be MACSize
// bytes.
func AppendChallenge(dst []byte, nonce uint64, mac []byte) []byte {
	dst, at := appendFramePrefix(dst, FrameChallenge, 0)
	dst = binary.BigEndian.AppendUint64(dst, nonce)
	dst = append(dst, mac...)
	return backfillLen(dst, at)
}

// AppendAuth appends a FrameAuth carrying the dialer's HMAC answering the
// acceptor's challenge nonce. mac must be MACSize bytes.
func AppendAuth(dst []byte, mac []byte) []byte {
	dst, at := appendFramePrefix(dst, FrameAuth, 0)
	dst = append(dst, mac...)
	return backfillLen(dst, at)
}

// AppendEpochAnnounce appends a FrameEpochAnnounce carrying the epoch
// number and the full address list of the announced membership.
func AppendEpochAnnounce(dst []byte, epoch uint64, addrs []string) []byte {
	dst, at := appendFramePrefix(dst, FrameEpochAnnounce, 0)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(addrs)))
	for _, a := range addrs {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(a)))
		dst = append(dst, a...)
	}
	return backfillLen(dst, at)
}

// AppendEpochAck appends a FrameEpochAck for the given epoch.
func AppendEpochAck(dst []byte, epoch uint64) []byte {
	dst, at := appendFramePrefix(dst, FrameEpochAck, 0)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	return backfillLen(dst, at)
}

// ParseEpochAnnounce decodes a FrameEpochAnnounce body. The returned
// address strings are copies; they do not alias body.
func ParseEpochAnnounce(body []byte) (epoch uint64, addrs []string, err error) {
	if len(body) < 10 {
		return 0, nil, fmt.Errorf("wire: epoch announce body %d bytes, want >= 10", len(body))
	}
	epoch = binary.BigEndian.Uint64(body[0:8])
	n := int(binary.BigEndian.Uint16(body[8:10]))
	body = body[10:]
	addrs = make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(body) < 2 {
			return 0, nil, fmt.Errorf("wire: epoch announce truncated at addr %d", i)
		}
		l := int(binary.BigEndian.Uint16(body[0:2]))
		body = body[2:]
		if len(body) < l {
			return 0, nil, fmt.Errorf("wire: epoch announce addr %d: %d bytes, want %d", i, len(body), l)
		}
		addrs = append(addrs, string(body[:l]))
		body = body[l:]
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("wire: epoch announce %d trailing bytes", len(body))
	}
	return epoch, addrs, nil
}

// ParseEpochAck decodes a FrameEpochAck body.
func ParseEpochAck(body []byte) (epoch uint64, err error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("wire: epoch ack body %d bytes, want 8", len(body))
	}
	return binary.BigEndian.Uint64(body), nil
}

// AppendGoodbye appends a FrameGoodbye.
func AppendGoodbye(dst []byte) []byte {
	dst, at := appendFramePrefix(dst, FrameGoodbye, 0)
	return backfillLen(dst, at)
}

// AppendConsensus appends a FrameConsensus carrying m for the given
// instance, encoding the body in place (no intermediate buffer).
func AppendConsensus(dst []byte, instance uint64, m *ConsensusMsg) []byte {
	dst, at := appendFramePrefix(dst, FrameConsensus, instance)
	dst = append(dst, m.Kind)
	switch m.Kind {
	case ConsensusRBC:
		dst = append(dst, m.Phase)
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
		dst = binary.BigEndian.AppendUint32(dst, m.Round)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.Value)))
		for _, v := range m.Value {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case ConsensusReport:
		dst = binary.BigEndian.AppendUint32(dst, m.Origin)
		dst = binary.BigEndian.AppendUint32(dst, m.Round)
	}
	return backfillLen(dst, at)
}

// ParseFrame splits a frame (without its length prefix) into header and
// body. Unknown kinds parse fine; only the version is checked here.
func ParseFrame(frame []byte) (FrameHeader, []byte, error) {
	if len(frame) < FrameHeaderLen {
		return FrameHeader{}, nil, fmt.Errorf("wire: frame shorter than header (%d bytes)", len(frame))
	}
	h := FrameHeader{
		Version:  frame[0],
		Kind:     FrameKind(frame[1]),
		Instance: binary.BigEndian.Uint64(frame[2:10]),
	}
	if h.Version != FrameVersion {
		return FrameHeader{}, nil, fmt.Errorf("wire: frame version %d, want %d", h.Version, FrameVersion)
	}
	return h, frame[FrameHeaderLen:], nil
}

// ParseHello decodes a keyless FrameHello body (id + epoch).
func ParseHello(body []byte) (peer uint32, epoch uint64, err error) {
	if len(body) != 12 {
		return 0, 0, fmt.Errorf("wire: hello body %d bytes, want 12", len(body))
	}
	return binary.BigEndian.Uint32(body[0:4]), binary.BigEndian.Uint64(body[4:12]), nil
}

// ParseHelloNonce decodes the keyed FrameHello body (id + epoch +
// dialer nonce).
func ParseHelloNonce(body []byte) (peer uint32, epoch, nonce uint64, err error) {
	if len(body) != 20 {
		return 0, 0, 0, fmt.Errorf("wire: keyed hello body %d bytes, want 20", len(body))
	}
	return binary.BigEndian.Uint32(body[0:4]), binary.BigEndian.Uint64(body[4:12]), binary.BigEndian.Uint64(body[12:20]), nil
}

// ParseChallenge decodes a FrameChallenge body. The returned mac aliases
// body.
func ParseChallenge(body []byte) (nonce uint64, mac []byte, err error) {
	if len(body) != 8+MACSize {
		return 0, nil, fmt.Errorf("wire: challenge body %d bytes, want %d", len(body), 8+MACSize)
	}
	return binary.BigEndian.Uint64(body[0:8]), body[8:], nil
}

// ParseAuth decodes a FrameAuth body. The returned mac aliases body.
func ParseAuth(body []byte) (mac []byte, err error) {
	if len(body) != MACSize {
		return nil, fmt.Errorf("wire: auth body %d bytes, want %d", len(body), MACSize)
	}
	return body, nil
}

// DecodeConsensus decodes a FrameConsensus body into m. The vector is
// written into m.Value's spare capacity when it fits (a fresh slice
// otherwise), so the caller decides where decoded values live: a slice of a
// chunk that is never rewritten may be handed on as it is — the protocol
// copies a value once, into the reliable-broadcast instance that first
// sees it, and nothing before that needs a copy of its own — while a
// caller that decodes into the same m again overwrites what it decoded
// before.
func DecodeConsensus(m *ConsensusMsg, body []byte) error {
	if len(body) < 1 {
		return fmt.Errorf("wire: empty consensus body")
	}
	m.Kind = body[0]
	body = body[1:]
	switch m.Kind {
	case ConsensusRBC:
		if len(body) < 11 {
			return fmt.Errorf("wire: rbc body %d bytes, want >= 11", len(body))
		}
		m.Phase = body[0]
		m.Origin = binary.BigEndian.Uint32(body[1:5])
		m.Round = binary.BigEndian.Uint32(body[5:9])
		dim := int(binary.BigEndian.Uint16(body[9:11]))
		body = body[11:]
		if len(body) != 8*dim {
			return fmt.Errorf("wire: rbc vector %d bytes, want %d", len(body), 8*dim)
		}
		if cap(m.Value) < dim {
			m.Value = make([]float64, dim)
		}
		m.Value = m.Value[:dim]
		for i := 0; i < dim; i++ {
			m.Value[i] = math.Float64frombits(binary.BigEndian.Uint64(body[8*i:]))
		}
	case ConsensusReport:
		if len(body) != 8 {
			return fmt.Errorf("wire: report body %d bytes, want 8", len(body))
		}
		m.Phase, m.Value = 0, m.Value[:0]
		m.Origin = binary.BigEndian.Uint32(body[0:4])
		m.Round = binary.BigEndian.Uint32(body[4:8])
	default:
		return fmt.Errorf("wire: unknown consensus kind %d", m.Kind)
	}
	return nil
}

// ReadFrameInto reads one length-prefixed frame into buf (grown when too
// small) and returns the frame bytes (header + body, prefix stripped)
// aliasing buf — the reuse path that keeps the service's reader loops
// allocation-free in the steady state: the length prefix is read into buf
// too, then overwritten by the frame. A prefix over MaxFrameSize returns
// ErrFrameTooLarge before buf grows, a short body a wrapped error, and a
// clean end of stream io.EOF unwrapped for clean-shutdown detection.
func ReadFrameInto(r io.Reader, buf []byte) (frame, newBuf []byte, err error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 256)
	}
	prefix := buf[:4]
	if _, err := io.ReadFull(r, prefix); err != nil {
		return nil, buf, err // preserve io.EOF
	}
	size := int(binary.BigEndian.Uint32(prefix))
	if size > MaxFrameSize {
		return nil, buf, ErrFrameTooLarge
	}
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, fmt.Errorf("wire: read body: %w", err)
	}
	return buf, buf, nil
}
