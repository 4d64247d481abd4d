package shard

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/txn"
)

// Handler ids on the two shard planes. HShard is the single client-facing
// entry on each node's ScaleRPC server; HRepl is the primary→backup
// forward on the dedicated replication server. Inner ids below HShard
// share the request's envelope: the txn handlers (txn.HExec…txn.HUnlock)
// pass through to the partition's participant, the HKV ops are the plain
// KV surface.
const (
	HShard uint8 = 40
	HRepl  uint8 = 41

	HKVGet uint8 = 30
	HKVPut uint8 = 31
)

// Routed response status codes. Anything except ROK carries routing
// feedback instead of an inner response.
const (
	ROK         uint8 = 0
	RStale      uint8 = 1 // stamped epoch ≠ node epoch; body = node epoch u32
	RWrongShard uint8 = 2 // node not primary; body = node epoch u32 + owner u16
	RRetry      uint8 = 3 // transient (replication unavailable); retry later
)

// envSize is the routed request envelope: epoch u32, partition u16,
// inner handler u8.
const envSize = 7

// EncodeEnv stamps the envelope ahead of body.
func EncodeEnv(buf []byte, epoch uint32, part int, inner uint8, body []byte) int {
	binary.LittleEndian.PutUint32(buf, epoch)
	binary.LittleEndian.PutUint16(buf[4:], uint16(part))
	buf[6] = inner
	copy(buf[envSize:], body)
	return envSize + len(body)
}

// DecodeEnv splits a routed request.
func DecodeEnv(buf []byte) (epoch uint32, part int, inner uint8, body []byte, err error) {
	if len(buf) < envSize {
		return 0, 0, 0, nil, fmt.Errorf("shard: short envelope")
	}
	return binary.LittleEndian.Uint32(buf),
		int(binary.LittleEndian.Uint16(buf[4:])),
		buf[6], buf[envSize:], nil
}

// EncodeKVPut builds an HKVPut body: token, then key and value.
func EncodeKVPut(buf []byte, token uint64, key, value []byte) int {
	binary.LittleEndian.PutUint64(buf, token)
	buf[8] = byte(len(key))
	n := 9 + copy(buf[9:], key)
	return n + copy(buf[n:], value)
}

// DecodeKVPut parses an HKVPut body.
func DecodeKVPut(buf []byte) (token uint64, key, value []byte, err error) {
	if len(buf) < 9 {
		return 0, nil, nil, fmt.Errorf("shard: short kv put")
	}
	token = binary.LittleEndian.Uint64(buf)
	kl := int(buf[8])
	if len(buf) < 9+kl {
		return 0, nil, nil, fmt.Errorf("shard: truncated kv put key")
	}
	return token, buf[9 : 9+kl], buf[9+kl:], nil
}

// Replication record kinds: a client KV put or a 2PC commit write set.
// The backup records the token in the matching dedup table so a client
// retry after promotion is answered from cache, not re-executed.
const (
	ReplKV  uint8 = 0
	ReplTxn uint8 = 1
)

// EncodeRepl builds an HRepl request: the map epoch the primary holds, the
// partition, the record kind, then the token and write set in txn
// write-request format.
func EncodeRepl(buf []byte, epoch uint32, part int, kind uint8, token uint64, kvs []txn.KV) int {
	binary.LittleEndian.PutUint32(buf, epoch)
	binary.LittleEndian.PutUint16(buf[4:], uint16(part))
	buf[6] = kind
	return 7 + txn.EncodeWriteReq(buf[7:], token, kvs)
}

// DecodeRepl parses an HRepl request, appending its write set to kvs
// (pass nil, or a slice to reuse). Keys and values alias buf.
func DecodeRepl(kvs []txn.KV, buf []byte) (epoch uint32, part int, kind uint8, token uint64, _ []txn.KV, err error) {
	if len(buf) < 7 {
		return 0, 0, 0, 0, kvs, fmt.Errorf("shard: short repl request")
	}
	epoch = binary.LittleEndian.Uint32(buf)
	part = int(binary.LittleEndian.Uint16(buf[4:]))
	kind = buf[6]
	token, kvs, err = txn.DecodeWriteReq(kvs, buf[7:])
	return epoch, part, kind, token, kvs, err
}
