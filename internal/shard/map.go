// Package shard turns the repository's single-node pieces — the MICA
// store, the ScaleTX 2PC participants and the exactly-once RPC machinery —
// into a distributed store over ScaleRPC: a versioned shard map places
// MICA partitions on server hosts, a client-side router stamps requests
// with the map epoch and follows redirects, primaries forward each put to
// a backup before applying it (2PC commits are forwarded best-effort), and
// a director drives lease-expiry failover through the connection control
// plane. Only a partition's primary answers client ops; a backup applies
// nothing but the replication stream.
package shard

import (
	"encoding/binary"
	"fmt"
	"sort"

	"scalerpc/internal/txn"
)

// NoHost marks an unassigned replica slot in a Map.
const NoHost = -1

// Map is one version of the partition placement. Partition count and the
// host universe are fixed for the deployment's lifetime; only the replica
// assignment (and the epoch) change, via failover.
type Map struct {
	Epoch      uint32
	Partitions int
	Hosts      []int // candidate server hosts (sorted, fixed universe)
	Primary    []int // per-partition primary host
	Backup     []int // per-partition backup host, NoHost if none
	Down       []int // hosts declared failed (sorted)
}

// NewMap places partitions across hosts by rendezvous hashing: each
// partition ranks every host by a mixed hash and takes the top two as
// primary and backup. Epoch starts at 1.
func NewMap(partitions int, hosts []int) *Map {
	if partitions <= 0 || len(hosts) == 0 {
		panic("shard: empty map")
	}
	m := &Map{
		Epoch:      1,
		Partitions: partitions,
		Hosts:      append([]int(nil), hosts...),
		Primary:    make([]int, partitions),
		Backup:     make([]int, partitions),
	}
	sort.Ints(m.Hosts)
	for p := 0; p < partitions; p++ {
		ranked := m.rank(p, nil)
		m.Primary[p] = ranked[0]
		m.Backup[p] = NoHost
		if len(ranked) > 1 {
			m.Backup[p] = ranked[1]
		}
	}
	return m
}

// rank orders the live hosts for one partition by rendezvous score,
// highest first. exclude (optional) removes one additional host.
func (m *Map) rank(part int, exclude map[int]bool) []int {
	type scored struct {
		host  int
		score uint64
	}
	var cand []scored
	for _, h := range m.Hosts {
		if m.isDown(h) || exclude[h] {
			continue
		}
		cand = append(cand, scored{h, rendezvous(uint64(part), uint64(h))})
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].score != cand[j].score {
			return cand[i].score > cand[j].score
		}
		return cand[i].host < cand[j].host
	})
	out := make([]int, len(cand))
	for i, c := range cand {
		out[i] = c.host
	}
	return out
}

// rendezvous mixes (partition, host) into a placement score.
func rendezvous(part, host uint64) uint64 {
	h := part*0x9e3779b97f4a7c15 ^ host*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

func (m *Map) isDown(host int) bool {
	for _, d := range m.Down {
		if d == host {
			return true
		}
	}
	return false
}

// PartitionOf maps a key to its partition using the same placement
// function ScaleTX coordinators use (txn.ShardKey), so transactional and
// KV routing agree on ownership.
func (m *Map) PartitionOf(key []byte) int { return txn.ShardKey(key, m.Partitions) }

// Clone deep-copies the map.
func (m *Map) Clone() *Map {
	n := *m
	n.Hosts = append([]int(nil), m.Hosts...)
	n.Primary = append([]int(nil), m.Primary...)
	n.Backup = append([]int(nil), m.Backup...)
	n.Down = append([]int(nil), m.Down...)
	return &n
}

// Failover marks dead as failed and reassigns every partition that used it:
// a dead primary's backup is promoted, and a fresh backup is drafted from
// the remaining live hosts by rendezvous rank (it starts empty — it only
// catches writes from its drafting onward, which is harmless until it is
// promoted because a backup answers no client op). Returns the partitions
// whose primary moved; the epoch bumps once if anything changed.
func (m *Map) Failover(dead int) (promoted []int) {
	if m.isDown(dead) {
		return nil
	}
	m.Down = append(m.Down, dead)
	sort.Ints(m.Down)
	changed := false
	for p := 0; p < m.Partitions; p++ {
		if m.Primary[p] == dead {
			if m.Backup[p] == NoHost || m.Backup[p] == dead {
				// No live replica: the partition is lost until the host
				// returns. Leave the dead primary in place; routers will
				// keep timing out on it.
				continue
			}
			m.Primary[p] = m.Backup[p]
			m.Backup[p] = m.nextBackup(p)
			promoted = append(promoted, p)
			changed = true
		} else if m.Backup[p] == dead {
			m.Backup[p] = m.nextBackup(p)
			changed = true
		}
	}
	if changed {
		m.Epoch++
	}
	return promoted
}

// nextBackup picks the highest-ranked live host that is not the primary.
func (m *Map) nextBackup(part int) int {
	for _, h := range m.rank(part, nil) {
		if h != m.Primary[part] {
			return h
		}
	}
	return NoHost
}

// HostPartitions lists the partitions a host serves as primary and backup.
func (m *Map) HostPartitions(host int) (primary, backup []int) {
	for p := 0; p < m.Partitions; p++ {
		if m.Primary[p] == host {
			primary = append(primary, p)
		}
		if m.Backup[p] == host {
			backup = append(backup, p)
		}
	}
	return primary, backup
}

// Encode serializes the map for control-plane distribution.
func (m *Map) Encode() []byte {
	buf := make([]byte, 0, 10+2*len(m.Hosts)+4*m.Partitions+2*len(m.Down))
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], m.Epoch)
	buf = append(buf, w[:4]...)
	binary.LittleEndian.PutUint16(w[:], uint16(m.Partitions))
	buf = append(buf, w[:2]...)
	binary.LittleEndian.PutUint16(w[:], uint16(len(m.Hosts)))
	buf = append(buf, w[:2]...)
	binary.LittleEndian.PutUint16(w[:], uint16(len(m.Down)))
	buf = append(buf, w[:2]...)
	put16 := func(v int) {
		binary.LittleEndian.PutUint16(w[:], uint16(v))
		buf = append(buf, w[:2]...)
	}
	for _, h := range m.Hosts {
		put16(h)
	}
	for _, d := range m.Down {
		put16(d)
	}
	for p := 0; p < m.Partitions; p++ {
		put16(m.Primary[p])
		if m.Backup[p] == NoHost {
			put16(0xffff)
		} else {
			put16(m.Backup[p])
		}
	}
	return buf
}

// DecodeMap parses an encoded map.
func DecodeMap(buf []byte) (*Map, error) {
	if len(buf) < 10 {
		return nil, fmt.Errorf("shard: short map")
	}
	m := &Map{
		Epoch:      binary.LittleEndian.Uint32(buf),
		Partitions: int(binary.LittleEndian.Uint16(buf[4:])),
	}
	nHosts := int(binary.LittleEndian.Uint16(buf[6:]))
	nDown := int(binary.LittleEndian.Uint16(buf[8:]))
	need := 10 + 2*nHosts + 2*nDown + 4*m.Partitions
	if len(buf) < need {
		return nil, fmt.Errorf("shard: truncated map (%d < %d)", len(buf), need)
	}
	off := 10
	get16 := func() int {
		v := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		return v
	}
	for i := 0; i < nHosts; i++ {
		m.Hosts = append(m.Hosts, get16())
	}
	for i := 0; i < nDown; i++ {
		m.Down = append(m.Down, get16())
	}
	for p := 0; p < m.Partitions; p++ {
		m.Primary = append(m.Primary, get16())
		b := get16()
		if b == 0xffff {
			b = NoHost
		}
		m.Backup = append(m.Backup, b)
	}
	return m, nil
}
