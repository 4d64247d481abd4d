package rpcwire

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"scalerpc/internal/memory"
)

// TestFramesMatchEncodeAndDecode: WriteFrame leaves a block holding exactly
// the bytes Encode leaves in a copy of it — the stale bytes before the
// frame untouched — for every split of the message into head and body, and
// ReadFrame returns what Decode returns.
func TestFramesMatchEncodeAndDecode(t *testing.T) {
	const block = 1024
	reg := memory.NewRegistry().Register(3*block, memory.PageSize4K, memory.LocalWrite)
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for i := 0; i < 300; i++ {
		off := rng.Intn(3) * block
		stale := make([]byte, block)
		rng.Read(stale[:rng.Intn(block)])
		reg.WriteAt(stale, int64(off))
		msg := make([]byte, rng.Intn(MaxPayload(block)+1))
		rng.Read(msg)
		split, flags := rng.Intn(len(msg)+1), byte(rng.Intn(256))
		if err := WriteFrame(reg, off, block, msg[:split], msg[split:], flags); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), stale...)
		if err := Encode(want, msg, flags); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, block)
		reg.ReadAt(got, int64(off))
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d (%d bytes, split at %d): WriteFrame's block differs from Encode's", i, len(msg), split)
		}
		wantMsg, wantFlags, _ := Decode(want)
		gotMsg, gotFlags, err := ReadFrame(reg, off, block, &buf)
		if err != nil || !bytes.Equal(gotMsg, wantMsg) || gotFlags != wantFlags {
			t.Fatalf("frame %d: ReadFrame = %d bytes, flags %#x, %v; Decode = %d bytes, flags %#x",
				i, len(gotMsg), gotFlags, err, len(wantMsg), wantFlags)
		}
	}
	if err := WriteFrame(reg, 0, block, make([]byte, 10), make([]byte, MaxPayload(block)-9), 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("an oversized frame: err = %v, want ErrTooLarge", err)
	}
}

// TestTornFrameReadsAsCRCDrop: a torn 2 KB frame whose last 256 bytes —
// the unit holding its Valid byte — landed while the unit before them did
// not reads as a CRC failure through ReadFrame, exactly as Decode reads
// the same torn block; so does a trailer whose MsgLen overruns the block.
// Neither is ever delivered.
func TestTornFrameReadsAsCRCDrop(t *testing.T) {
	reg := memory.NewRegistry().Register(2*BlockSize, memory.PageSize2M, memory.LocalWrite)
	p := NewPool(reg, BlockSize, 2, 1)
	msg := bytes.Repeat([]byte{0x5C}, 2048)
	full := make([]byte, BlockSize)
	if err := Encode(full, msg, 0); err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, BlockSize)
	copy(torn[BlockSize-256:], full[BlockSize-256:]) // the Valid byte's unit landed
	copy(torn[:BlockSize-512], full[:BlockSize-512]) // and everything before the unit in front of it
	reg.WriteAt(torn, int64(BlockSize))
	if _, _, err := Decode(torn); !errors.Is(err, ErrCRC) {
		t.Fatalf("Decode of the torn block: err = %v, want ErrCRC", err)
	}
	var buf []byte
	if !p.Valid(0, 1) {
		t.Fatal("the torn frame's Valid byte did not land")
	}
	if got, _, err := p.ReadFrame(0, 1, &buf); !errors.Is(err, ErrCRC) {
		t.Fatalf("ReadFrame of the torn frame: %d bytes, err = %v, want ErrCRC", len(got), err)
	}
	reg.WriteAt(full[BlockSize-512:BlockSize-256], int64(2*BlockSize-512))
	if got, _, err := p.ReadFrame(0, 1, &buf); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("once the missing unit lands: %d bytes, err = %v, want the 2 KB message", len(got), err)
	}

	bad := [4]byte{0xFF, 0xFF, 0, 0} // MsgLen 65535 in a 4 KB block
	reg.WriteAt(bad[:], int64(BlockSize-TrailerSize))
	reg.WriteAt([]byte{validMagic}, BlockSize-1)
	if _, _, err := p.ReadFrame(0, 0, &buf); !errors.Is(err, ErrCRC) {
		t.Fatalf("a trailer with an overrunning MsgLen: err = %v, want ErrCRC", err)
	}
}
