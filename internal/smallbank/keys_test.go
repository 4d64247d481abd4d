package smallbank

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// TestKeysMatchSprintf pins the strconv-built keys and values to the
// fmt.Sprintf("%08d") / PutUint64 encodings they replaced: stores loaded by
// one must be readable by the other, byte for byte.
func TestKeysMatchSprintf(t *testing.T) {
	for _, id := range []int{0, 1, 9, 10, 99_999, 1 << 31} {
		if got, want := SavingsKey(id), fmt.Sprintf("sv%08d", id); string(got) != want {
			t.Errorf("SavingsKey(%d) = %q, want %q", id, got, want)
		}
		if got, want := CheckingKey(id), fmt.Sprintf("ck%08d", id); string(got) != want {
			t.Errorf("CheckingKey(%d) = %q, want %q", id, got, want)
		}
		// Appending leaves what is already in the buffer alone.
		if got, want := AppendCheckingKey([]byte("x"), id), fmt.Sprintf("xck%08d", id); string(got) != want {
			t.Errorf("AppendCheckingKey(x, %d) = %q, want %q", id, got, want)
		}
		want := make([]byte, 8)
		binary.LittleEndian.PutUint64(want, uint64(int64(id)-7))
		if got := appendMoney(nil, int64(id)-7); !bytes.Equal(got, want) {
			t.Errorf("appendMoney(%d) = %x, want %x", id-7, got, want)
		}
		if got := moneys(1, int64(id)-7); !bytes.Equal(got[1], want) || amount(got[0]) != 1 {
			t.Errorf("moneys(1, %d) = %x", id-7, got)
		}
	}
}
