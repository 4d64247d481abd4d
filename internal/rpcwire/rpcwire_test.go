package rpcwire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"scalerpc/internal/memory"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	block := make([]byte, 128)
	msg := []byte("the quick brown fox")
	if err := Encode(block, msg, FlagError); err != nil {
		t.Fatal(err)
	}
	if !Valid(block) {
		t.Fatal("encoded block not valid")
	}
	got, flags, err := Decode(block)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("payload = %q", got)
	}
	if flags != FlagError {
		t.Fatalf("flags = %#x", flags)
	}
}

func TestEncodeRightAligned(t *testing.T) {
	block := make([]byte, 64)
	msg := []byte{1, 2, 3, 4}
	Encode(block, msg, 0)
	dataEnd := 64 - TrailerSize
	if !bytes.Equal(block[dataEnd-4:dataEnd], msg) {
		t.Fatal("data not right-aligned against trailer")
	}
	for _, b := range block[:dataEnd-4] {
		if b != 0 {
			t.Fatal("padding disturbed")
		}
	}
}

func TestEncodeTooLarge(t *testing.T) {
	block := make([]byte, 32)
	err := Encode(block, make([]byte, 32-TrailerSize+1), 0)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if err := Encode(block, make([]byte, 32-TrailerSize), 0); err != nil {
		t.Fatalf("max-size payload rejected: %v", err)
	}
}

func TestDecodeInvalidBlock(t *testing.T) {
	block := make([]byte, 64)
	if _, _, err := Decode(block); !errors.Is(err, ErrNotValid) {
		t.Fatalf("err = %v, want ErrNotValid", err)
	}
}

func TestClearInvalidates(t *testing.T) {
	p := NewPool(memory.NewRegistry().Register(4*64, memory.PageSize4K, memory.LocalWrite), 64, 4, 1)
	p.WriteFrame(0, 2, []byte("x"), 0)
	p.Clear(0, 2)
	var buf []byte
	if _, _, err := p.ReadFrame(0, 2, &buf); p.Valid(0, 2) || !errors.Is(err, ErrNotValid) {
		t.Fatal("cleared block still valid")
	}
	// Re-encode works after clear (stateless pool reuse).
	if err := p.WriteFrame(0, 2, []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	got, _, _ := p.ReadFrame(0, 2, &buf)
	if string(got) != "y" {
		t.Fatalf("got %q", got)
	}
}

func TestDecodeCorruptLength(t *testing.T) {
	block := make([]byte, 64)
	Encode(block, []byte("ok"), 0)
	// Corrupt MsgLen to exceed the data area.
	block[64-TrailerSize] = 0xFF
	block[64-TrailerSize+1] = 0xFF
	if _, _, err := Decode(block); err == nil {
		t.Fatal("corrupt MsgLen not detected")
	}
}

func TestEncodedSpanCoversDataAndTrailer(t *testing.T) {
	err := quick.Check(func(rawBS uint16, rawML uint16) bool {
		blockSize := int(rawBS%4000) + TrailerSize + 8
		msgLen := int(rawML) % (blockSize - TrailerSize)
		off, length := EncodedSpan(blockSize, msgLen)
		return off >= 0 && off+length == blockSize && length == msgLen+TrailerSize
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidOffsetIsLastByte(t *testing.T) {
	if ValidOffset(4096) != 4095 {
		t.Fatalf("ValidOffset = %d", ValidOffset(4096))
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	err := quick.Check(func(id uint64, h uint8, cid uint16) bool {
		buf := make([]byte, 64)
		n := PutHeader(buf, Header{ReqID: id, Handler: h, ClientID: cid})
		if n != HeaderSize {
			return false
		}
		got, rest, err := ParseHeader(buf)
		return err == nil && got.ReqID == id && got.Handler == h && got.ClientID == cid &&
			len(rest) == 64-HeaderSize
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseHeaderShort(t *testing.T) {
	if _, _, err := ParseHeader(make([]byte, 3)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestPoolLayout(t *testing.T) {
	reg := memory.NewRegistry().Register(1<<20, memory.PageSize2M, memory.LocalWrite|memory.RemoteWrite)
	p := NewPool(reg, 4096, 20, 12)
	if p.Size() != 4096*20*12 {
		t.Fatalf("Size = %d", p.Size())
	}
	if p.ZoneAddr(0) != reg.Base {
		t.Fatal("zone 0 must start at region base")
	}
	if p.BlockAddr(1, 0) != reg.Base+4096*20 {
		t.Fatalf("zone 1 addr = %#x", p.BlockAddr(1, 0))
	}
	if p.BlockAddr(0, 3)-p.BlockAddr(0, 2) != 4096 {
		t.Fatal("blocks not contiguous")
	}
	if p.ValidAddr(0, 0) != p.BlockAddr(0, 0)+4095 {
		t.Fatal("ValidAddr wrong")
	}
}

func TestPoolBlockAliasesRegion(t *testing.T) {
	reg := memory.NewRegistry().Register(1<<16, memory.PageSize4K, memory.LocalWrite)
	p := NewPool(reg, 256, 4, 8)
	p.WriteFrame(2, 3, []byte("zz"), 0)
	addr := p.BlockAddr(2, 3)
	block := make([]byte, 256)
	reg.ReadAt(block, int64(addr-reg.Base))
	if !Valid(block) {
		t.Fatal("block does not alias region memory")
	}
}

func TestPoolTooSmallPanics(t *testing.T) {
	reg := memory.NewRegistry().Register(1024, memory.PageSize4K, memory.LocalWrite)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized pool")
		}
	}()
	NewPool(reg, 4096, 20, 12)
}

func TestPropertyEncodeNeverTouchesOtherBlocks(t *testing.T) {
	reg := memory.NewRegistry().Register(64*16, memory.PageSize4K, memory.LocalWrite)
	p := NewPool(reg, 64, 4, 4)
	err := quick.Check(func(z8, b8 uint8, data []byte) bool {
		z, b := int(z8)%4, int(b8)%4
		if len(data) > MaxPayload(64) {
			data = data[:MaxPayload(64)]
		}
		reg.WriteAt(make([]byte, reg.Len()), 0)
		if err := p.WriteFrame(z, b, data, 0); err != nil {
			return false
		}
		// Every byte outside the target block must still be zero.
		lo := z*4*64 + b*64
		hi := lo + 64
		all := make([]byte, reg.Len())
		reg.ReadAt(all, 0)
		for i, v := range all {
			if (i < lo || i >= hi) && v != 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
