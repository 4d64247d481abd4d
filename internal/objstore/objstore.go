// Package objstore generates the paper's object-store transactional
// workload (§4.2.1, Figure 16(a)): transactions over uniformly random keys
// with a configurable read set of r items and write set of w items,
// denoted (r, w) — the read-intensive OLTP benchmark style of FaSST.
package objstore

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/stats"
	"scalerpc/internal/txn"
)

// Config shapes the workload.
type Config struct {
	Keys      int // total objects across all participants
	ValueSize int
	ReadSet   int // r
	WriteSet  int // w
}

// Key returns the i-th object key.
func Key(i int) []byte { return []byte(fmt.Sprintf("obj%012d", i)) }

// Load inserts all objects into their owning participants.
func Load(parts []*txn.Participant, cfg Config) error {
	val := make([]byte, cfg.ValueSize)
	for i := 0; i < cfg.Keys; i++ {
		k := Key(i)
		binary.LittleEndian.PutUint64(val, uint64(i))
		p := parts[txn.ShardKey(k, len(parts))]
		if _, err := p.Store.Put(nil, k, val); err != nil {
			return fmt.Errorf("objstore: load key %d: %w", i, err)
		}
	}
	return nil
}

// Gen produces transactions.
type Gen struct {
	cfg Config
	rng *stats.RNG
	buf []byte
}

// NewGen returns a generator with its own random stream.
func NewGen(cfg Config, seed uint64) *Gen {
	return &Gen{cfg: cfg, rng: stats.NewRNG(seed), buf: make([]byte, cfg.ValueSize)}
}

// Next builds one (r, w) transaction over distinct random keys.
func (g *Gen) Next() *txn.Txn {
	n := g.cfg.ReadSet + g.cfg.WriteSet
	picked := make(map[int]bool, n)
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		i := g.rng.Intn(g.cfg.Keys)
		if picked[i] {
			continue
		}
		picked[i] = true
		keys = append(keys, Key(i))
	}
	t := &txn.Txn{
		Reads:  keys[:g.cfg.ReadSet],
		Writes: keys[g.cfg.ReadSet:],
	}
	if g.cfg.WriteSet > 0 {
		rng := g.rng
		size := g.cfg.ValueSize
		t.Apply = func(readVals, writeVals [][]byte) [][]byte {
			out := make([][]byte, len(writeVals))
			for i := range out {
				v := make([]byte, size)
				binary.LittleEndian.PutUint64(v, rng.Uint64())
				out[i] = v
			}
			return out
		}
	}
	return t
}
