// Package txn implements ScaleTX (§4.2): a distributed transactional
// system running OCC with two-phase commit over any of this repository's
// RPC transports, with the paper's co-use of one-sided verbs:
//
//  1. Execution — the coordinator RPCs each participant to read the items
//     of R and W; participants lock W items and return each item's value,
//     version and memory address.
//  2. Validate — the coordinator re-reads R versions with one-sided RDMA
//     READs at the collected addresses; any change aborts.
//  3. Log & Commit — the coordinator RPCs log records to W participants,
//     then installs each W item with a single one-sided RDMA WRITE whose
//     image sets the new value and version and zeroes the lock word.
//
// ScaleTX-O (the comparison mode) replaces the one-sided validate/commit
// with RPCs.
package txn

import (
	"encoding/binary"
	"fmt"
)

// Handler ids registered on each participant's RPC server.
const (
	HExec     = 10
	HValidate = 11
	HLog      = 12
	HCommit   = 13
	HUnlock   = 14
	HGet      = 15
)

// Exec response status codes.
const (
	StOK           = 0
	StLockConflict = 1
	StNotFound     = 2
)

// KV is one key/value pair on the wire.
type KV struct {
	Key   []byte
	Value []byte
}

// ItemResult is one item's execution-phase result.
type ItemResult struct {
	Found   bool
	Version uint64
	Addr    uint64 // item slot address on the participant
	Value   []byte
}

// --- encoding helpers -------------------------------------------------

func putKey(buf []byte, key []byte) int {
	buf[0] = byte(len(key))
	copy(buf[1:], key)
	return 1 + len(key)
}

func getKey(buf []byte) ([]byte, int, error) {
	if len(buf) < 1 {
		return nil, 0, fmt.Errorf("txn: truncated key")
	}
	n := int(buf[0])
	if len(buf) < 1+n {
		return nil, 0, fmt.Errorf("txn: truncated key body")
	}
	return buf[1 : 1+n], 1 + n, nil
}

// EncodeExecReq builds an execution-phase request.
func EncodeExecReq(buf []byte, txnID uint64, reads, writes [][]byte) int {
	binary.LittleEndian.PutUint64(buf, txnID)
	buf[8] = byte(len(reads))
	buf[9] = byte(len(writes))
	n := 10
	for _, k := range reads {
		n += putKey(buf[n:], k)
	}
	for _, k := range writes {
		n += putKey(buf[n:], k)
	}
	return n
}

// DecodeExecReq parses an execution-phase request.
func DecodeExecReq(buf []byte) (txnID uint64, reads, writes [][]byte, err error) {
	if len(buf) < 10 {
		return 0, nil, nil, fmt.Errorf("txn: short exec request")
	}
	txnID = binary.LittleEndian.Uint64(buf)
	nR, nW := int(buf[8]), int(buf[9])
	n := 10
	for i := 0; i < nR+nW; i++ {
		k, adv, e := getKey(buf[n:])
		if e != nil {
			return 0, nil, nil, e
		}
		n += adv
		if i < nR {
			reads = append(reads, k)
		} else {
			writes = append(writes, k)
		}
	}
	return txnID, reads, writes, nil
}

// EncodeExecResp builds an execution-phase response.
func EncodeExecResp(buf []byte, status byte, items []ItemResult) int {
	buf[0] = status
	n := 1
	for _, it := range items {
		if it.Found {
			buf[n] = 1
		} else {
			buf[n] = 0
		}
		binary.LittleEndian.PutUint64(buf[n+1:], it.Version)
		binary.LittleEndian.PutUint64(buf[n+9:], it.Addr)
		binary.LittleEndian.PutUint16(buf[n+17:], uint16(len(it.Value)))
		copy(buf[n+19:], it.Value)
		n += 19 + len(it.Value)
	}
	return n
}

// DecodeExecResp parses an execution-phase response carrying count items,
// appending them to items (pass nil, or a slice to reuse). Item values alias
// buf.
func DecodeExecResp(items []ItemResult, buf []byte, count int) (status byte, _ []ItemResult, err error) {
	if len(buf) < 1 {
		return 0, nil, fmt.Errorf("txn: short exec response")
	}
	status = buf[0]
	if status != StOK {
		return status, nil, nil
	}
	n := 1
	for i := 0; i < count; i++ {
		if len(buf) < n+19 {
			return 0, nil, fmt.Errorf("txn: truncated exec response")
		}
		it := ItemResult{
			Found:   buf[n] == 1,
			Version: binary.LittleEndian.Uint64(buf[n+1:]),
			Addr:    binary.LittleEndian.Uint64(buf[n+9:]),
		}
		vl := int(binary.LittleEndian.Uint16(buf[n+17:]))
		if len(buf) < n+19+vl {
			return 0, nil, fmt.Errorf("txn: truncated value")
		}
		it.Value = buf[n+19 : n+19+vl]
		n += 19 + vl
		items = append(items, it)
	}
	return status, items, nil
}

// EncodeKeysReq builds a validate/unlock request: txnID plus a key list.
func EncodeKeysReq(buf []byte, txnID uint64, keys [][]byte) int {
	binary.LittleEndian.PutUint64(buf, txnID)
	buf[8] = byte(len(keys))
	n := 9
	for _, k := range keys {
		n += putKey(buf[n:], k)
	}
	return n
}

// DecodeKeysReq parses a validate/unlock request.
func DecodeKeysReq(buf []byte) (txnID uint64, keys [][]byte, err error) {
	if len(buf) < 9 {
		return 0, nil, fmt.Errorf("txn: short keys request")
	}
	txnID = binary.LittleEndian.Uint64(buf)
	n := 9
	for i := 0; i < int(buf[8]); i++ {
		k, adv, e := getKey(buf[n:])
		if e != nil {
			return 0, nil, e
		}
		n += adv
		keys = append(keys, k)
	}
	return txnID, keys, nil
}

// EncodeVersionsResp builds a validate response.
func EncodeVersionsResp(buf []byte, versions []uint64) int {
	buf[0] = byte(len(versions))
	n := 1
	for _, v := range versions {
		binary.LittleEndian.PutUint64(buf[n:], v)
		n += 8
	}
	return n
}

// DecodeVersionsResp parses a validate response, appending the versions to
// out (pass nil, or a slice to reuse).
func DecodeVersionsResp(out []uint64, buf []byte) ([]uint64, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("txn: short versions response")
	}
	count := int(buf[0])
	if len(buf) < 1+8*count {
		return nil, fmt.Errorf("txn: truncated versions response")
	}
	for i := 0; i < count; i++ {
		out = append(out, binary.LittleEndian.Uint64(buf[1+8*i:]))
	}
	return out, nil
}

// EncodeWriteReq builds a log/commit request: txnID plus key/value pairs.
func EncodeWriteReq(buf []byte, txnID uint64, kvs []KV) int {
	binary.LittleEndian.PutUint64(buf, txnID)
	buf[8] = byte(len(kvs))
	n := 9
	for _, kv := range kvs {
		n += putKey(buf[n:], kv.Key)
		binary.LittleEndian.PutUint16(buf[n:], uint16(len(kv.Value)))
		copy(buf[n+2:], kv.Value)
		n += 2 + len(kv.Value)
	}
	return n
}

// DecodeWriteReq parses a log/commit request.
func DecodeWriteReq(buf []byte) (txnID uint64, kvs []KV, err error) {
	if len(buf) < 9 {
		return 0, nil, fmt.Errorf("txn: short write request")
	}
	txnID = binary.LittleEndian.Uint64(buf)
	n := 9
	for i := 0; i < int(buf[8]); i++ {
		k, adv, e := getKey(buf[n:])
		if e != nil {
			return 0, nil, e
		}
		n += adv
		if len(buf) < n+2 {
			return 0, nil, fmt.Errorf("txn: truncated write value length")
		}
		vl := int(binary.LittleEndian.Uint16(buf[n:]))
		if len(buf) < n+2+vl {
			return 0, nil, fmt.Errorf("txn: truncated write value")
		}
		kvs = append(kvs, KV{Key: k, Value: buf[n+2 : n+2+vl]})
		n += 2 + vl
	}
	return txnID, kvs, nil
}
