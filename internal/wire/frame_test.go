package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/raceflag"
)

// TestFrameGoldenBytes pins the v2 frame layout byte-for-byte. These
// literals are the layout documented in docs/WIRE_FORMAT.md; if this test
// needs updating, the document (and FrameVersion) must change with it.
func TestFrameGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string // hex
	}{
		{
			name: "hello",
			got:  AppendHello(nil, 3, 9),
			// len=22 | v2 kind=1 instance=0 | peer=3 epoch=9
			want: "00000016" + "0201" + "0000000000000000" + "00000003" + "0000000000000009",
		},
		{
			name: "goodbye",
			got:  AppendGoodbye(nil),
			want: "0000000a" + "0203" + "0000000000000000",
		},
		{
			name: "hello-nonce",
			got:  AppendHelloNonce(nil, 3, 9, 0x1122334455667788),
			// len=30 | v2 kind=1 instance=0 | peer=3 epoch=9 nonce
			want: "0000001e" + "0201" + "0000000000000000" + "00000003" + "0000000000000009" + "1122334455667788",
		},
		{
			name: "challenge",
			got:  AppendChallenge(nil, 0x0102030405060708, mustHex("a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8c1c2c3c4c5c6c7c8d1d2d3d4d5d6d7d8")),
			// len=50 | v2 kind=4 instance=0 | nonce | 32-byte mac
			want: "00000032" + "0204" + "0000000000000000" + "0102030405060708" +
				"a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8c1c2c3c4c5c6c7c8d1d2d3d4d5d6d7d8",
		},
		{
			name: "auth",
			got:  AppendAuth(nil, mustHex("a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8c1c2c3c4c5c6c7c8d1d2d3d4d5d6d7d8")),
			// len=42 | v2 kind=5 instance=0 | 32-byte mac
			want: "0000002a" + "0205" + "0000000000000000" +
				"a1a2a3a4a5a6a7a8b1b2b3b4b5b6b7b8c1c2c3c4c5c6c7c8d1d2d3d4d5d6d7d8",
		},
		{
			name: "report",
			got: AppendConsensus(nil, 0x0102030405060708, &ConsensusMsg{
				Kind: ConsensusReport, Origin: 4, Round: 7,
			}),
			// len=19 | v2 kind=2 instance | kind=2 origin=4 round=7
			want: "00000013" + "0202" + "0102030405060708" + "02" + "00000004" + "00000007",
		},
		{
			name: "rbc",
			got: AppendConsensus(nil, 42, &ConsensusMsg{
				Kind: ConsensusRBC, Phase: 1, Origin: 2, Round: 9,
				Value: []float64{0.5, -1},
			}),
			// len=38 | v2 kind=2 instance=42 |
			// kind=1 phase=1 origin=2 round=9 dim=2 | 0.5 | -1
			want: "00000026" + "0202" + "000000000000002a" +
				"01" + "01" + "00000002" + "00000009" + "0002" +
				"3fe0000000000000" + "bff0000000000000",
		},
	}
	for _, tc := range cases {
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatalf("%s: bad test literal: %v", tc.name, err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s frame:\n got %x\nwant %x", tc.name, tc.got, want)
		}
	}
}

// mustHex decodes a test literal, panicking on malformed input.
func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// TestHandshakeFrameRoundTrip covers the keyed-handshake frame bodies.
func TestHandshakeFrameRoundTrip(t *testing.T) {
	mac := bytes.Repeat([]byte{0x5a}, MACSize)

	enc := AppendHelloNonce(nil, 7, 3, 99)
	h, body, err := ParseFrame(enc[4:])
	if err != nil || h.Kind != FrameHello {
		t.Fatalf("hello-nonce: header %+v err %v", h, err)
	}
	if peer, epoch, nonce, err := ParseHelloNonce(body); err != nil || peer != 7 || epoch != 3 || nonce != 99 {
		t.Fatalf("hello-nonce: peer=%d epoch=%d nonce=%d err=%v", peer, epoch, nonce, err)
	}
	if _, _, _, err := ParseHelloNonce(body[:4]); err == nil {
		t.Error("short keyed hello: no error")
	}

	enc = AppendChallenge(nil, 42, mac)
	h, body, err = ParseFrame(enc[4:])
	if err != nil || h.Kind != FrameChallenge {
		t.Fatalf("challenge: header %+v err %v", h, err)
	}
	if nonce, gotMac, err := ParseChallenge(body); err != nil || nonce != 42 || !bytes.Equal(gotMac, mac) {
		t.Fatalf("challenge: nonce=%d mac=%x err=%v", nonce, gotMac, err)
	}
	if _, _, err := ParseChallenge(body[:8]); err == nil {
		t.Error("short challenge: no error")
	}

	enc = AppendAuth(nil, mac)
	h, body, err = ParseFrame(enc[4:])
	if err != nil || h.Kind != FrameAuth {
		t.Fatalf("auth: header %+v err %v", h, err)
	}
	if gotMac, err := ParseAuth(body); err != nil || !bytes.Equal(gotMac, mac) {
		t.Fatalf("auth: mac=%x err=%v", gotMac, err)
	}
	if _, err := ParseAuth(body[:MACSize-1]); err == nil {
		t.Error("short auth: no error")
	}
}

// Retired frames, as v2 encoded them while it still carried membership
// gossip: kind 6 announcing epoch 2 over the addresses "a:1" and "b:22",
// and kind 7 acknowledging epoch 2.
const (
	retiredAnnounceHex = "0000001f" + "0206" + "0000000000000000" +
		"0000000000000002" + "0002" + "0003" + "613a31" + "0004" + "623a3232"
	retiredAckHex = "00000012" + "0207" + "0000000000000000" + "0000000000000002"
)

// TestRetiredKindsParseAsUnknown: the retired kinds 6 and 7 still parse
// as a header plus an opaque body, so a receiver skips them under the
// unknown-kind rule instead of failing the connection.
func TestRetiredKindsParseAsUnknown(t *testing.T) {
	for _, tc := range []struct {
		hex  string
		kind FrameKind
	}{{retiredAnnounceHex, 6}, {retiredAckHex, 7}} {
		enc := mustHex(tc.hex)
		h, body, err := ParseFrame(enc[4:])
		if err != nil {
			t.Fatalf("kind %d: %v", tc.kind, err)
		}
		if h.Version != FrameVersion || h.Kind != tc.kind || h.Instance != 0 {
			t.Fatalf("kind %d: header %+v", tc.kind, h)
		}
		if !bytes.Equal(body, enc[4+FrameHeaderLen:]) {
			t.Fatalf("kind %d: body %x, want the frame's last %d bytes", tc.kind, body, len(enc)-4-FrameHeaderLen)
		}
	}
}

func TestFrameV2RoundTrip(t *testing.T) {
	msgs := []ConsensusMsg{
		{Kind: ConsensusRBC, Phase: 2, Origin: 1, Round: 3, Value: []float64{0.25, 0.75, -0.5}},
		{Kind: ConsensusReport, Origin: 6, Round: 11},
		{Kind: ConsensusRBC, Phase: 3, Origin: 0, Round: 1, Value: nil},
	}
	var stream []byte
	for i := range msgs {
		stream = AppendConsensus(stream, uint64(100+i), &msgs[i])
	}
	stream = AppendGoodbye(stream)

	r := bytes.NewReader(stream)
	var buf []byte
	var dec ConsensusMsg // reused across frames: exercises Value reuse
	for i := range msgs {
		frame, nb, err := ReadFrameInto(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = nb
		h, body, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if h.Kind != FrameConsensus || h.Instance != uint64(100+i) {
			t.Fatalf("frame %d: header %+v", i, h)
		}
		if err := DecodeConsensus(&dec, body); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := msgs[i]
		if dec.Kind != want.Kind || dec.Phase != want.Phase || dec.Origin != want.Origin || dec.Round != want.Round {
			t.Fatalf("frame %d: decoded %+v want %+v", i, dec, want)
		}
		if len(dec.Value) != len(want.Value) {
			t.Fatalf("frame %d: value %v want %v", i, dec.Value, want.Value)
		}
		for j := range want.Value {
			if dec.Value[j] != want.Value[j] {
				t.Fatalf("frame %d: value %v want %v", i, dec.Value, want.Value)
			}
		}
	}
	frame, _, err := ReadFrameInto(r, buf)
	if err != nil {
		t.Fatalf("goodbye: %v", err)
	}
	if h, _, err := ParseFrame(frame); err != nil || h.Kind != FrameGoodbye {
		t.Fatalf("goodbye: header %+v err %v", h, err)
	}
	if _, _, err := ReadFrameInto(r, buf); err != io.EOF {
		t.Fatalf("stream end: err %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	if _, _, err := ParseFrame([]byte{2, 1}); err == nil {
		t.Error("short frame: no error")
	}
	bad := AppendHello(nil, 1, 0)
	bad[4] = 99 // corrupt version byte
	if _, _, err := ParseFrame(bad[4:]); err == nil {
		t.Error("bad version: no error")
	}
	// Unknown frame kinds must parse (forward compatibility).
	fut, at := appendFramePrefix(nil, FrameKind(200), 7)
	fut = backfillLen(append(fut, 1, 2, 3), at)
	h, body, err := ParseFrame(fut[4:])
	if err != nil || h.Kind != FrameKind(200) || h.Instance != 7 || len(body) != 3 {
		t.Errorf("future kind: h=%+v body=%d err=%v", h, len(body), err)
	}
	var m ConsensusMsg
	if err := DecodeConsensus(&m, []byte{9}); err == nil {
		t.Error("unknown consensus kind: no error")
	}
	if err := DecodeConsensus(&m, []byte{ConsensusRBC, 1, 0, 0, 0, 1}); err == nil {
		t.Error("truncated rbc: no error")
	}
	if err := DecodeConsensus(&m, []byte{ConsensusReport, 0, 0}); err == nil {
		t.Error("truncated report: no error")
	}
}

// TestReadFrameInto pins ReadFrameInto's contract, which the service's
// reader loops branch on: frames come back prefix-stripped in the caller's
// buffer; an oversize claim is refused before the buffer grows; a short
// body is a wrapped error; a clean end of stream is io.EOF itself.
func TestReadFrameInto(t *testing.T) {
	hello := AppendHello(nil, 5, 1)
	report := AppendConsensus(nil, 9, &ConsensusMsg{Kind: ConsensusReport, Origin: 4, Round: 2})
	cases := []struct {
		name   string
		stream []byte
		frames [][]byte // read successfully before the final read
		want   string   // the final read's error
		ok     func(error) bool
	}{
		{
			name:   "oversize_prefix",
			stream: binary.BigEndian.AppendUint32(nil, MaxFrameSize+1),
			want:   "ErrFrameTooLarge",
			ok:     func(err error) bool { return err == ErrFrameTooLarge },
		},
		{
			name:   "truncated_body",
			stream: report[:len(report)-3],
			want:   "a wrapped io.ErrUnexpectedEOF",
			ok: func(err error) bool {
				return errors.Is(err, io.ErrUnexpectedEOF) && errors.Unwrap(err) != nil
			},
		},
		{
			name: "clean_eof",
			want: "io.EOF",
			ok:   func(err error) bool { return err == io.EOF },
		},
		{
			name:   "back_to_back",
			stream: slices.Concat(hello, report, hello),
			frames: [][]byte{hello[4:], report[4:], hello[4:]},
			want:   "io.EOF",
			ok:     func(err error) bool { return err == io.EOF },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.stream)
			buf := make([]byte, 0, 64)
			for i, want := range tc.frames {
				frame, nb, err := ReadFrameInto(r, buf)
				if err != nil || !bytes.Equal(frame, want) {
					t.Fatalf("frame %d = %x (err %v), want %x", i, frame, err, want)
				}
				if &frame[0] != &buf[:1][0] || cap(nb) != cap(buf) {
					t.Fatalf("frame %d: buffer not reused", i)
				}
				buf = nb
			}
			_, nb, err := ReadFrameInto(r, buf)
			if !tc.ok(err) {
				t.Errorf("err = %v, want %s", err, tc.want)
			}
			if cap(nb) != cap(buf) {
				t.Errorf("buffer grew from %d to %d", cap(buf), cap(nb))
			}
		})
	}
}

// TestReadFrameIntoAllocs: the steady-state read — a frame that fits the
// caller's buffer — allocates nothing, the length prefix included (it is
// read into the buffer, not into a local that escapes through io.Reader).
func TestReadFrameIntoAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var stream []byte
	for i := 0; i < 8; i++ {
		stream = AppendConsensus(stream, uint64(i), &ConsensusMsg{Kind: ConsensusRBC, Phase: 2, Origin: 1, Round: 3, Value: []float64{0.5, float64(i)}})
		stream = AppendConsensus(stream, uint64(i), &ConsensusMsg{Kind: ConsensusReport, Origin: 2, Round: 3})
	}
	r := bytes.NewReader(stream)
	var buf []byte
	read := func() {
		if r.Len() == 0 {
			r.Reset(stream)
		}
		frame, nb, err := ReadFrameInto(r, buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParseFrame(frame); err != nil {
			t.Fatal(err)
		}
		buf = nb
	}
	read() // sizes the buffer
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("ReadFrameInto: %v allocs per frame in the steady state, want 0", allocs)
	}
	// A reader whose buffer is too small even for the prefix still works.
	r.Reset(stream)
	if frame, _, err := ReadFrameInto(r, make([]byte, 0, 2)); err != nil || len(frame) == 0 {
		t.Errorf("ReadFrameInto with a 2-byte buffer: frame %d bytes, err %v", len(frame), err)
	}
}
