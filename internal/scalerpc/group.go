// The grouping policy (§3.2): which group a joiner enters, how the groups
// are rebuilt at a switch, when their sizes force a rebuild, and how long a
// group's slice may run. Each decision is a pure function of a rotation, a
// snapshot of the rotating clients; the scheduler (scheduler.go) gathers the
// snapshot and carries the decision out, and the context switch and warmup
// that do so (§3.3) are none of the policy's business. This file imports
// only the standard library (TestGroupPolicyIsPure).
package scalerpc

import (
	"cmp"
	"slices"
)

// member is one rotating client as the policy sees it.
type member struct {
	id     uint16
	part   int     // partition key, tenant class<<1 | demoted: no group spans two
	prio   float64 // P_i = T_i/S_i, the priority the last slices measured
	weight float64 // the tenant's slice weight
}

// rotation is a grouping: its members group by group in rotation order,
// each group's in the group's own order. Group i is
// members[ends[i-1]:ends[i]], the first from 0.
type rotation struct {
	members []member
	ends    []int
}

func (r rotation) groups() int { return len(r.ends) }

func (r rotation) bounds(i int) (start, end int) {
	if i > 0 {
		start = r.ends[i-1]
	}
	return start, r.ends[i]
}

func (r rotation) group(i int) []member {
	start, end := r.bounds(i)
	return r.members[start:end]
}

// head is a group's partition key. Place and plan keep groups
// partition-pure, so the first member speaks for the group; an empty group
// reads as healthy and of class 0.
func head(grp []member) int {
	if len(grp) == 0 {
		return 0
	}
	return grp[0].part
}

// policy is what the decisions read besides the rotation.
type policy struct {
	size    int  // G, the default group size
	dynamic bool // the priority scheduler, not the paper's static grouping (Fig 12)
	classed bool // a tenant authority: class-pure groups, weighted slices
}

// place picks the group a joiner enters, or -1 for a fresh one: the newest
// group under G of the joiner's partition. Admission fills a group to G;
// the 3G/2 bound only governs groups that grow later. Without a tenant
// authority only the last group is a candidate, an empty one counting as
// healthy; under one, empty groups are passed over, so groups are
// class-pure from the first join on.
func (p policy) place(r rotation, j member) int {
	for i := r.groups() - 1; i >= 0; i-- {
		if grp := r.group(i); len(grp) < p.size && head(grp) == j.part && (len(grp) > 0 || !p.classed) {
			return i
		}
		if !p.classed {
			break
		}
	}
	return -1
}

// outOfBounds reports whether a group is outside §3.2's lazy bounds
// [G/2, 3G/2], which forces a rebuild at the next switch rather than at the
// rotation's start. The upper bound binds every group. The lower bound
// spares the last group (the population need not be a multiple of G), every
// group under a tenant authority (each class's trailing group may be a
// runt; the rebuild at the rotation's start still rebalances within
// classes) and suspect-only groups (one demoted peer holds however many
// clients it holds).
func (p policy) outOfBounds(r rotation) bool {
	for i := 0; i < r.groups(); i++ {
		n := len(r.group(i))
		if n > p.size*3/2 || n < p.size/2 && i != r.groups()-1 && !p.classed && head(r.group(i))&1 == 0 {
			return true
		}
	}
	return false
}

// plan rebuilds the grouping at a switch, group cur being the one now
// served, into out's buffers. It reports false, keeping the groups as they
// are, unless the bounds are broken or the rebuild is due (the rotation
// starts over, or an eviction or a demotion changed who rotates where) and
// there is something to sort by: the static scheduler without a tenant
// authority keeps join order until the bounds break.
//
// The current group is frozen, since its members already occupy the
// processing pool, and goes first; an emptied one is dropped instead, or
// it would be re-frozen at every pass and burn whole slices serving nobody
// while the populated groups starve. The rest are sorted by partition and,
// under the dynamic scheduler, by descending priority, ids breaking ties:
// the order depends on who rotates, not on where the snapshot lists them.
// They are cut into chunks of G that never span a partition: a bulk
// tenant never rides in (and inflates) a latency-class group, and a suspect
// client never shares a slice with healthy ones. A runt that would trail a
// chunk is absorbed into it when the whole tail fits in 3G/2 and is of one
// partition, and a runt left at the end merges backwards, into the frozen
// group too, while the bound allows and the partitions agree.
func (p policy) plan(r rotation, cur int, due bool, out rotation) (rotation, bool) {
	if !p.outOfBounds(r) && (!due || !p.dynamic && !p.classed) {
		return out, false
	}
	start, end := r.bounds(cur)
	out.members = append(out.members[:0], r.members[start:end]...)
	out.ends = out.ends[:0]
	if end > start {
		out.ends = append(out.ends, end-start)
	}
	out.members = append(append(out.members, r.members[:start]...), r.members[end:]...)
	rest := out.members[end-start:]
	slices.SortFunc(rest, func(a, b member) int {
		if a.part != b.part {
			return cmp.Compare(a.part, b.part)
		}
		if p.dynamic && a.prio != b.prio {
			return cmp.Compare(b.prio, a.prio)
		}
		return cmp.Compare(a.id, b.id)
	})
	g := p.size
	for len(rest) > 0 {
		n := min(g, len(rest))
		for i := 1; i < n; i++ {
			if rest[i].part != rest[0].part {
				n = i
				break
			}
		}
		if tail := len(rest) - n; tail > 0 && tail < g/2 && len(rest) <= g*3/2 && rest[len(rest)-1].part == rest[0].part {
			n = len(rest)
		}
		rest = rest[n:]
		out.ends = append(out.ends, len(out.members)-len(rest))
	}
	for k := out.groups(); k >= 2; k = out.groups() {
		last, prev := out.group(k-1), out.group(k-2)
		if len(last) >= g/2 || len(prev)+len(last) > g*3/2 || head(prev) != head(last) {
			break
		}
		out.ends = append(out.ends[:k-2], out.ends[k-1])
	}
	return out, true
}

// budget is group g's longest slice as a multiple of TimeSlice. Under the
// priority scheduler a group whose clients post small requests often (high
// P_i) takes shared time from idle ones, within [0.75, 1.5] (§3.2). Under a
// tenant authority its tenant weights scale it within [1/4, 2]: a bulk
// tenant cut to weight 0.25 rotates in quarter slices (the scheduler's
// floor). Both terms average over the rotation, which pinned clients,
// their priority never measured, are not in.
func (p policy) budget(r rotation, g int) float64 {
	if g >= r.groups() || r.groups() < 2 {
		return 1
	}
	ratio := 1.0
	if p.dynamic {
		ratio = meanRatio(r, g, func(m member) float64 { return m.prio }, 0.75, 1.5)
	}
	if p.classed {
		ratio *= meanRatio(r, g, func(m member) float64 { return m.weight }, 0.25, 2)
	}
	return ratio
}

// meanRatio is group g's mean of v over the rotation's, clamped to
// [lo, hi]; 1 when group g is empty or v sums to 0 over the rotation.
func meanRatio(r rotation, g int, v func(member) float64, lo, hi float64) float64 {
	var sum, all float64
	grp := r.group(g)
	for _, m := range grp {
		sum += v(m)
	}
	for _, m := range r.members {
		all += v(m)
	}
	if len(grp) == 0 || all == 0 {
		return 1
	}
	return min(max((sum/float64(len(grp)))/(all/float64(len(r.members))), lo), hi)
}
