package rpcwire

import (
	"math/rand"
	"testing"

	"scalerpc/internal/memory"
)

// TestValidMatchesTheByte: over seeded interleavings of frame writes,
// clears, partial and torn writes of the Valid byte's unit and zero writes
// onto unwritten units, every Pool.Valid answer equals a raw ByteAt read of
// the block's Valid byte, whether Valid read the byte or answered from its
// memo of a byte that read clear at an unchanged region generation.
func TestValidMatchesTheByte(t *testing.T) {
	const block, perZone, zones, unit = 1024, 4, 3, 256
	var hits, missed, probes int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A page past the pool that only zero writes ever reach.
		reg := memory.NewRegistry().Register(block*perZone*zones+memory.PageSize4K, memory.PageSize4K, memory.LocalWrite)
		p := NewPool(reg, block, perZone, zones)
		written := make([]bool, reg.Len()/unit) // units a write has reached
		write := func(b []byte, off int) {
			reg.WriteAt(b, int64(off))
			for u := off / unit; u*unit < off+len(b); u++ {
				written[u] = true
			}
		}
		probe := func(z, b int) {
			i := z*perZone + b
			memo := p.clearAt[i] == reg.Gen()+1
			want := reg.ByteAt(p.blockOff(z, b)+ValidOffset(block)) == validMagic
			if got := p.Valid(z, b); got != want {
				t.Fatalf("seed %d, probe %d: Valid(%d, %d) = %v (memo %v), the byte says %v", seed, probes, z, b, got, memo, want)
			}
			switch {
			case memo:
				hits++
			case p.clearAt[i] != 0 && want:
				missed++ // a memo the generation outdated, on a block since made valid
			}
			probes++
		}
		for op := 0; op < 400; op++ {
			z, b := rng.Intn(zones), rng.Intn(perZone)
			off := p.blockOff(z, b)
			end := off + block
			switch rng.Intn(7) {
			case 0:
				msg := make([]byte, rng.Intn(MaxPayload(block)+1))
				rng.Read(msg)
				if err := p.WriteFrame(z, b, msg, byte(rng.Intn(256))); err != nil {
					t.Fatal(err)
				}
				for u := (end - len(msg) - TrailerSize) / unit; u < end/unit; u++ {
					written[u] = true
				}
			case 1:
				p.Clear(z, b)
			case 2, 3:
				for rep := 0; rep < 2; rep++ {
					for b := 0; b < perZone; b++ {
						probe(z, b)
					}
				}
			case 4: // a partial write inside the Valid byte's unit
				at := end - unit + rng.Intn(unit)
				span := make([]byte, 1+rng.Intn(end-at))
				rng.Read(span)
				if at+len(span) == end {
					span[len(span)-1] = []byte{0, validMagic, span[len(span)-1]}[rng.Intn(3)]
				}
				write(span, at)
			case 5: // a torn frame: one of the block's units never lands
				img := make([]byte, block)
				reg.ReadAt(img, int64(off))
				msg := make([]byte, rng.Intn(MaxPayload(block)+1))
				rng.Read(msg)
				if err := Encode(img, msg, 0); err != nil {
					t.Fatal(err)
				}
				gap := rng.Intn(block / unit)
				write(img[:gap*unit], off)
				write(img[(gap+1)*unit:], off+(gap+1)*unit)
			case 6: // zeros onto a unit nothing has written
				u := len(written) - 1 - rng.Intn(memory.PageSize4K/unit)
				if k := rng.Intn(len(written)); !written[k] {
					u = k
				}
				reg.WriteAt(make([]byte, 1+rng.Intn(unit)), int64(u*unit))
			}
			if rng.Intn(4) == 0 {
				probe(z, b)
			}
		}
	}
	if hits < 1000 || missed < 100 {
		t.Fatalf("%d probes: %d answered from the memo, %d outdated memos on valid blocks; want ≥ 1000 and ≥ 100", probes, hits, missed)
	}
	t.Logf("%d probes: %d answered from the memo, %d outdated memos on valid blocks", probes, hits, missed)
}
