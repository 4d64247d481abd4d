// Package rpcwire defines the message-pool layout shared by every RPC
// implementation in this repository: pools split into zones, zones split
// into fixed-size message blocks, and the paper's right-aligned in-block
// message format (§3.1):
//
//	| padding | Data | MsgLen | Flags | CRC | Valid |
//
// RDMA updates memory in increasing address order, so once the trailing
// Valid byte is visible the preceding Data, MsgLen and CRC fields are
// complete; a poller detects message arrival by reading a single byte at a
// fixed offset. The Flags field carries the context_switch_event
// notification ScaleRPC piggybacks on responses (§3.3). The CRC32 guards
// the frame end to end: the NIC's ICRC only covers the wire hop, so DMA-
// or fault-injected corruption past the NIC is otherwise delivered
// silently; a CRC mismatch is treated as loss (Clear and let the sender's
// retry machinery recover).
package rpcwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Trailer layout (at the end of every block), in increasing address order:
//
//	MsgLen uint32 | Flags uint8 | Seq uint8 | CRC uint32 | Valid uint8
const (
	lenSize     = 4
	flagsSize   = 1
	seqSize     = 1
	crcSize     = 4
	validSize   = 1
	TrailerSize = lenSize + flagsSize + seqSize + crcSize + validSize
)

// Flag bits carried in the trailer.
const (
	// FlagContextSwitch tells a ScaleRPC client its group's time slice
	// ended (context_switch_event, §3.3).
	FlagContextSwitch = 1 << 0
	// FlagError marks a response carrying an application error payload.
	FlagError = 1 << 2
)

const validMagic = 0xA5

// BlockSize is the message block every transport in the tree uses: the
// paper's 4 KB (§3.6.1), which also keeps a UD response inside one MTU.
const BlockSize = 4096

// Errors returned by Decode/Encode.
var (
	ErrTooLarge = errors.New("rpcwire: message does not fit in block")
	ErrNotValid = errors.New("rpcwire: block has no valid message")
	// ErrCRC marks a frame whose trailer CRC32 does not cover its bytes:
	// the Valid byte landed but the frame was corrupted in flight (or by a
	// torn write). Receivers treat it exactly like loss.
	ErrCRC = errors.New("rpcwire: frame CRC mismatch")
)

// crcOf computes the frame checksum: payload through the Seq byte, i.e.
// everything the trailer describes except the CRC and Valid fields.
func crcOf(block []byte, msgLen int) uint32 {
	dataEnd := len(block) - TrailerSize
	return crc32.ChecksumIEEE(block[dataEnd-msgLen : dataEnd+lenSize+flagsSize+seqSize])
}

// MaxPayload returns the largest message a block of the given size holds.
func MaxPayload(blockSize int) int { return blockSize - TrailerSize }

// Encode places payload right-aligned in block with the given flags and
// marks it valid. The block is a full message block slice.
func Encode(block []byte, payload []byte, flags byte) error {
	if len(payload) > MaxPayload(len(block)) {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), MaxPayload(len(block)))
	}
	dataEnd := len(block) - TrailerSize
	copy(block[dataEnd-len(payload):dataEnd], payload)
	binary.LittleEndian.PutUint32(block[dataEnd:], uint32(len(payload)))
	block[dataEnd+lenSize] = flags
	block[dataEnd+lenSize+flagsSize] = 0
	binary.LittleEndian.PutUint32(block[dataEnd+lenSize+flagsSize+seqSize:], crcOf(block, len(payload)))
	block[len(block)-1] = validMagic
	return nil
}

// Valid reports whether the block holds an undelivered message. This is the
// single-byte probe a polling server issues per block.
func Valid(block []byte) bool { return block[len(block)-1] == validMagic }

// ValidOffset returns the offset of the Valid byte within a block — the
// address a poller reads.
func ValidOffset(blockSize int) int { return blockSize - 1 }

// Decode returns the payload and flags of a valid block, verifying the
// trailer CRC. A frame that fails the check returns an error wrapping
// ErrCRC; receivers count it and treat it as loss. The returned slice
// aliases block. A block need not be a whole message block: the encoded
// span alone (EncodedSpan), as ReadFrame reads it, decodes the same.
func Decode(block []byte) (payload []byte, flags byte, err error) {
	if !Valid(block) {
		return nil, 0, ErrNotValid
	}
	dataEnd := len(block) - TrailerSize
	msgLen := int(binary.LittleEndian.Uint32(block[dataEnd:]))
	if msgLen > dataEnd {
		return nil, 0, fmt.Errorf("%w: corrupt MsgLen %d in %d-byte block", ErrCRC, msgLen, len(block))
	}
	want := binary.LittleEndian.Uint32(block[dataEnd+lenSize+flagsSize+seqSize:])
	if got := crcOf(block, msgLen); got != want {
		return nil, 0, fmt.Errorf("%w: got %08x want %08x", ErrCRC, got, want)
	}
	return block[dataEnd-msgLen : dataEnd], block[dataEnd+lenSize], nil
}

// Reseal recomputes the trailer CRC of an encoded block after an in-place
// rewrite of its data (e.g. the membership ClientID restamp on cold
// rejoin). It returns the offset of the CRC word so callers can flush
// exactly the rewritten bytes.
func Reseal(block []byte) (crcOffset int) {
	dataEnd := len(block) - TrailerSize
	msgLen := int(binary.LittleEndian.Uint32(block[dataEnd:]))
	off := dataEnd + lenSize + flagsSize + seqSize
	binary.LittleEndian.PutUint32(block[off:], crcOf(block, msgLen))
	return off
}

// EncodedSpan returns the offset and length within the block that an
// encoded message of msgLen bytes occupies (data through trailer). RDMA
// writers send exactly this span so small messages cost small writes.
func EncodedSpan(blockSize, msgLen int) (offset, length int) {
	dataEnd := blockSize - TrailerSize
	return dataEnd - msgLen, msgLen + TrailerSize
}

// Header is the RPC-level framing carried inside Data by every RPC
// implementation here: an opaque request id the client correlates
// responses with, the handler to invoke, and the caller's client id.
type Header struct {
	ReqID    uint64
	Handler  uint8
	ClientID uint16
}

const (
	// ClientIDOffset is where ClientID sits in an encoded Header, after
	// ReqID and Handler.
	ClientIDOffset = 8 + 1
	// HeaderSize is the encoded size of Header.
	HeaderSize = ClientIDOffset + 2
)

// PutHeader encodes h at the front of buf and returns HeaderSize.
func PutHeader(buf []byte, h Header) int {
	binary.LittleEndian.PutUint64(buf, h.ReqID)
	buf[8] = h.Handler
	binary.LittleEndian.PutUint16(buf[ClientIDOffset:], h.ClientID)
	return HeaderSize
}

// ParseHeader decodes a Header from the front of buf.
func ParseHeader(buf []byte) (Header, []byte, error) {
	if len(buf) < HeaderSize {
		return Header{}, nil, fmt.Errorf("rpcwire: short message (%d bytes)", len(buf))
	}
	h := Header{
		ReqID:    binary.LittleEndian.Uint64(buf),
		Handler:  buf[8],
		ClientID: binary.LittleEndian.Uint16(buf[ClientIDOffset:]),
	}
	return h, buf[HeaderSize:], nil
}
