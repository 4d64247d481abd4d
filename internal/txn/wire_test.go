package txn

import (
	"bytes"
	"testing"
	"testing/quick"
)

func clampKeys(raw [][]byte, max int) [][]byte {
	var out [][]byte
	for _, k := range raw {
		if len(k) == 0 {
			continue
		}
		if len(k) > 64 {
			k = k[:64]
		}
		out = append(out, k)
		if len(out) == max {
			break
		}
	}
	return out
}

func TestExecReqRoundTrip(t *testing.T) {
	err := quick.Check(func(id uint64, rawR, rawW [][]byte) bool {
		reads := clampKeys(rawR, 8)
		writes := clampKeys(rawW, 8)
		buf := make([]byte, 4096)
		n := EncodeExecReq(buf, id, reads, writes)
		gotID, gotR, gotW, err := DecodeExecReq(nil, nil, buf[:n])
		if err != nil || gotID != id || len(gotR) != len(reads) || len(gotW) != len(writes) {
			return false
		}
		for i := range reads {
			if !bytes.Equal(gotR[i], reads[i]) {
				return false
			}
		}
		for i := range writes {
			if !bytes.Equal(gotW[i], writes[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExecRespRoundTrip(t *testing.T) {
	items := []ItemResult{
		{Found: true, Version: 42, Addr: 0x10_0000_1234, Value: []byte("v-one")},
		{Found: false},
		{Found: true, Version: ^uint64(0), Addr: 1, Value: nil},
	}
	buf := make([]byte, 1024)
	n := EncodeExecResp(buf, StOK, items)
	status, got, err := DecodeExecResp(nil, buf[:n], len(items))
	if err != nil || status != StOK {
		t.Fatalf("status=%d err=%v", status, err)
	}
	for i := range items {
		if got[i].Found != items[i].Found || got[i].Version != items[i].Version ||
			got[i].Addr != items[i].Addr || !bytes.Equal(got[i].Value, items[i].Value) {
			t.Fatalf("item %d: %+v != %+v", i, got[i], items[i])
		}
	}
}

func TestExecRespErrorStatusShortCircuits(t *testing.T) {
	buf := make([]byte, 16)
	n := EncodeExecResp(buf, StLockConflict, nil)
	status, items, err := DecodeExecResp(nil, buf[:n], 5)
	if err != nil || status != StLockConflict || items != nil {
		t.Fatalf("status=%d items=%v err=%v", status, items, err)
	}
}

func TestExecRespTruncationDetected(t *testing.T) {
	buf := make([]byte, 1024)
	n := EncodeExecResp(buf, StOK, []ItemResult{{Found: true, Value: []byte("abcdef")}})
	if _, _, err := DecodeExecResp(nil, buf[:n-3], 1); err == nil {
		t.Fatal("truncated response accepted")
	}
	if _, _, err := DecodeExecResp(nil, buf[:n], 2); err == nil {
		t.Fatal("over-count accepted")
	}
}

func TestKeysReqRoundTrip(t *testing.T) {
	err := quick.Check(func(id uint64, raw [][]byte) bool {
		keys := clampKeys(raw, 12)
		buf := make([]byte, 4096)
		n := EncodeKeysReq(buf, id, keys)
		gotID, got, err := DecodeKeysReq(nil, buf[:n])
		if err != nil || gotID != id || len(got) != len(keys) {
			return false
		}
		for i := range keys {
			if !bytes.Equal(got[i], keys[i]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVersionsRespRoundTrip(t *testing.T) {
	vers := []uint64{0, 1, ^uint64(0), 12345}
	buf := make([]byte, 256)
	n := EncodeVersionsResp(buf, vers)
	got, err := DecodeVersionsResp(nil, buf[:n])
	if err != nil || len(got) != len(vers) {
		t.Fatalf("err=%v len=%d", err, len(got))
	}
	for i := range vers {
		if got[i] != vers[i] {
			t.Fatalf("version %d: %d != %d", i, got[i], vers[i])
		}
	}
	if _, err := DecodeVersionsResp(nil, buf[:n-2]); err == nil {
		t.Fatal("truncated versions accepted")
	}
}

func TestWriteReqRoundTrip(t *testing.T) {
	err := quick.Check(func(id uint64, rawK, rawV [][]byte) bool {
		keys := clampKeys(rawK, 6)
		kvs := make([]KV, len(keys))
		for i, k := range keys {
			var v []byte
			if i < len(rawV) {
				v = rawV[i]
				if len(v) > 100 {
					v = v[:100]
				}
			}
			kvs[i] = KV{Key: k, Value: v}
		}
		buf := make([]byte, 8192)
		n := EncodeWriteReq(buf, id, kvs)
		gotID, got, err := DecodeWriteReq(nil, buf[:n])
		if err != nil || gotID != id || len(got) != len(kvs) {
			return false
		}
		for i := range kvs {
			if !bytes.Equal(got[i].Key, kvs[i].Key) || !bytes.Equal(got[i].Value, kvs[i].Value) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	garbage := [][]byte{nil, {}, {1}, {1, 2, 3}, bytes.Repeat([]byte{0xFF}, 9)}
	for _, g := range garbage {
		DecodeExecReq(nil, nil, g)
		DecodeKeysReq(nil, g)
		DecodeWriteReq(nil, g)
		DecodeVersionsResp(nil, g)
		DecodeExecResp(nil, g, 3)
	}
	// Reaching here without panics is the assertion.
}
