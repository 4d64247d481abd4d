package rpcwire

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzBlockSize is the frame size the corruption fuzzers use — small enough
// that the fuzzer's bit flips land in the trailer often, large enough to
// hold a header plus payload.
const fuzzBlockSize = 128

// FuzzDecode feeds arbitrary bytes to the frame parser as a full block.
// Whatever the contents — truncated garbage, a torn write, a frame with a
// corrupt MsgLen pointing outside the block — Decode and ParseHeader must
// never panic, and a successful decode must return a payload that fits the
// block. Blocks smaller than the trailer cannot exist (pools refuse them),
// so such inputs are skipped rather than required to parse.
func FuzzDecode(f *testing.F) {
	good := make([]byte, fuzzBlockSize)
	msg := make([]byte, HeaderSize+8)
	PutHeader(msg, Header{ReqID: 42, Handler: 1, ClientID: 7})
	if err := Encode(good, msg, FlagContextSwitch); err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(bytes.Repeat([]byte{0xff}, fuzzBlockSize))
	f.Add(make([]byte, TrailerSize))
	truncated := append([]byte(nil), good[:fuzzBlockSize-3]...)
	f.Add(truncated)

	f.Fuzz(func(t *testing.T, block []byte) {
		if len(block) < TrailerSize {
			t.Skip("below the minimum block size the pools enforce")
		}
		payload, _, err := Decode(block)
		if err != nil {
			if !errors.Is(err, ErrCRC) && !errors.Is(err, ErrNotValid) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if len(payload) > len(block)-TrailerSize {
			t.Fatalf("decoded payload of %d bytes from a %d-byte block", len(payload), len(block))
		}
		// Header parsing of whatever decoded must not panic either.
		_, _, _ = ParseHeader(payload)
	})
}

// FuzzDecodeBitFlip encodes a well-formed frame, flips one bit anywhere in
// the block, and decodes. Either the CRC (or Valid probe) rejects the
// frame, or the flip landed in dead padding and the decode returns the
// original payload and flags byte-for-byte — a successful decode carrying
// modified content is the integrity failure the wire CRC exists to prevent.
func FuzzDecodeBitFlip(f *testing.F) {
	f.Add([]byte("hello rpc"), byte(0), uint32(7))
	f.Add([]byte{}, byte(FlagError), uint32(fuzzBlockSize*8-1))
	f.Add(bytes.Repeat([]byte{0xa5}, MaxPayload(fuzzBlockSize)), byte(FlagError), uint32(300))

	f.Fuzz(func(t *testing.T, payload []byte, flags byte, bitPos uint32) {
		if len(payload) > MaxPayload(fuzzBlockSize) {
			payload = payload[:MaxPayload(fuzzBlockSize)]
		}
		block := make([]byte, fuzzBlockSize)
		if err := Encode(block, payload, flags); err != nil {
			t.Fatal(err)
		}
		pos := int(bitPos) % (fuzzBlockSize * 8)
		block[pos/8] ^= 1 << (pos % 8)

		got, gotFlags, err := Decode(block)
		if err != nil {
			if !errors.Is(err, ErrCRC) && !errors.Is(err, ErrNotValid) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if !bytes.Equal(got, payload) || gotFlags != flags {
			t.Fatalf("bit flip at %d delivered altered content: payload %x→%x flags %x→%x",
				pos, payload, got, flags, gotFlags)
		}
	})
}

// FuzzDecodeReplay replays a resealed frame: an in-place header restamp
// (the membership cold-rejoin path) must keep the frame decodable and must
// change only the restamped bytes.
func FuzzDecodeReplay(f *testing.F) {
	f.Add(uint64(1), uint16(3), uint16(9), []byte("body"))
	f.Add(uint64(1)<<63, uint16(0xffff), uint16(0), []byte{})

	f.Fuzz(func(t *testing.T, reqID uint64, oldID, newID uint16, body []byte) {
		if len(body) > MaxPayload(fuzzBlockSize)-HeaderSize {
			body = body[:MaxPayload(fuzzBlockSize)-HeaderSize]
		}
		msg := make([]byte, HeaderSize+len(body))
		PutHeader(msg, Header{ReqID: reqID, Handler: 1, ClientID: oldID})
		copy(msg[HeaderSize:], body)
		block := make([]byte, fuzzBlockSize)
		if err := Encode(block, msg, 0); err != nil {
			t.Fatal(err)
		}

		// Restamp the ClientID in place and reseal, as restampID does.
		off, _ := EncodedSpan(fuzzBlockSize, len(msg))
		PutHeader(block[off:], Header{ReqID: reqID, Handler: 1, ClientID: newID})
		Reseal(block)

		payload, _, err := Decode(block)
		if err != nil {
			t.Fatalf("resealed frame must decode: %v", err)
		}
		hdr, rest, err := ParseHeader(payload)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.ClientID != newID || hdr.ReqID != reqID || !bytes.Equal(rest, body) {
			t.Fatalf("restamp mangled the frame: %+v body %x", hdr, rest)
		}
	})
}
