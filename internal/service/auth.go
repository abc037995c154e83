package service

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/wire"
)

// Keyed handshake (Config.AuthKey non-nil): a mutual HMAC-SHA256
// challenge/response layered on the v2 Hello so connection identity
// holds against an active network attacker, not just an honest-but-racy
// mesh. The dialer opens with a nonce-carrying Hello; the acceptor
// answers with its own nonce plus a MAC binding both nonces and its id
// (proving key knowledge first — the dialer learns a bad key before
// revealing anything); the dialer closes with a MAC over the mirrored
// tuple. Nonces are fresh per connection, so transcripts cannot be
// replayed, and every proof binds the membership epoch the connection
// is being established under. Keyless mode (nil AuthKey) keeps the
// plain id+epoch Hello for examples and tests; the two modes refuse
// each other by construction (body length and missing frames).

// ErrAuthFailed is the handshake failure cause recorded when a peer
// cannot prove knowledge of the shared key.
var ErrAuthFailed = errors.New("service: handshake authentication failed")

// authMAC computes the handshake MAC for one direction: label separates
// the server and client proofs, n1 is the nonce being answered, n2 the
// answerer's own nonce (0 in the closing client proof), id the prover's
// process id, epoch the membership epoch the connection is being
// established under. Binding the epoch into both proofs means the two
// sides commit to the same membership: a Hello whose epoch was tampered
// with in flight — or a peer silently running a different epoch than it
// claims — fails verification.
func authMAC(key []byte, label string, n1, n2 uint64, id uint32, epoch uint64) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte(label))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], n1)
	m.Write(b[:])
	binary.BigEndian.PutUint64(b[:], n2)
	m.Write(b[:])
	binary.BigEndian.PutUint32(b[:4], id)
	m.Write(b[:4])
	binary.BigEndian.PutUint64(b[:], epoch)
	m.Write(b[:])
	return m.Sum(nil)
}

// newNonce draws a fresh handshake nonce from the system CSPRNG.
func newNonce() (uint64, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("service: nonce: %w", err)
	}
	return binary.BigEndian.Uint64(b[:]), nil
}

// readHandshakeFrame reads one frame of the expected kind during the
// handshake (deadline already set by the caller). The peer has not
// authenticated, so a prefix over wire.MaxHandshakeFrame is refused unread.
func readHandshakeFrame(conn net.Conn, kind wire.FrameKind) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(prefix[:])
	if size > wire.MaxHandshakeFrame {
		return nil, fmt.Errorf("%w: handshake frame of %d bytes", wire.ErrFrameTooLarge, size)
	}
	frame := make([]byte, size)
	if _, err := io.ReadFull(conn, frame); err != nil {
		return nil, err
	}
	h, body, err := wire.ParseFrame(frame)
	if err != nil {
		return nil, err
	}
	if h.Kind != kind {
		return nil, fmt.Errorf("service: handshake frame kind %d, want %d", h.Kind, kind)
	}
	return body, nil
}

// clientHandshake runs the dialer's half against peer on an established
// conn under the given membership epoch: plain Hello when keyless, the
// full challenge/response when keyed. Both sides MAC over the epoch, so
// a mismatch surfaces as ErrAuthFailed rather than a silent cross-epoch
// connection.
func (s *Service) clientHandshake(conn net.Conn, peer int, epoch uint64) error {
	key := s.cfg.AuthKey
	if len(key) == 0 {
		_, err := conn.Write(wire.AppendHello(nil, uint32(s.cfg.ID), epoch))
		return err
	}
	cn, err := newNonce()
	if err != nil {
		return err
	}
	if _, err := conn.Write(wire.AppendHelloNonce(nil, uint32(s.cfg.ID), epoch, cn)); err != nil {
		return err
	}
	body, err := readHandshakeFrame(conn, wire.FrameChallenge)
	if err != nil {
		return err
	}
	sn, mac, err := wire.ParseChallenge(body)
	if err != nil {
		return err
	}
	if !hmac.Equal(mac, authMAC(key, "bvc2-srv", cn, sn, uint32(peer), epoch)) {
		return ErrAuthFailed
	}
	_, err = conn.Write(wire.AppendAuth(nil, authMAC(key, "bvc2-cli", sn, 0, uint32(s.cfg.ID), epoch)))
	return err
}

// serverHandshake runs the acceptor's half on a fresh inbound conn under
// the current membership epoch: read the Hello, refuse any other epoch
// (ErrStaleEpoch), authenticate when keyed, and return the identified
// peer id. The caller has set the read deadline.
func (s *Service) serverHandshake(conn net.Conn, current uint64) (int, error) {
	body, err := readHandshakeFrame(conn, wire.FrameHello)
	if err != nil {
		return 0, err
	}
	key := s.cfg.AuthKey
	if len(key) == 0 {
		peer, epoch, err := wire.ParseHello(body)
		if err != nil {
			return 0, err // a keyed hello against a keyless mesh lands here
		}
		if epoch != current {
			return 0, fmt.Errorf("%w: hello epoch %d (current %d)", ErrStaleEpoch, epoch, current)
		}
		return int(peer), nil
	}
	peer, epoch, cn, err := wire.ParseHelloNonce(body)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}
	if epoch != current {
		return 0, fmt.Errorf("%w: hello epoch %d (current %d)", ErrStaleEpoch, epoch, current)
	}
	sn, err := newNonce()
	if err != nil {
		return 0, err
	}
	if _, err := conn.Write(wire.AppendChallenge(nil, sn, authMAC(key, "bvc2-srv", cn, sn, uint32(s.cfg.ID), epoch))); err != nil {
		return 0, err
	}
	body, err = readHandshakeFrame(conn, wire.FrameAuth)
	if err != nil {
		return 0, err
	}
	mac, err := wire.ParseAuth(body)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrAuthFailed, err)
	}
	if !hmac.Equal(mac, authMAC(key, "bvc2-cli", sn, 0, uint32(peer), epoch)) {
		return 0, ErrAuthFailed
	}
	return int(peer), nil
}
