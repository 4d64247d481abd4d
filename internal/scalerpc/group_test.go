package scalerpc

import (
	"go/build"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"scalerpc/internal/cluster"
	"scalerpc/internal/sim"
)

// The grouping policy (group.go) without a cluster: one table per decision,
// then a property test over random snapshots. Partition keys are written
// out: 0 healthy, 1 suspect (demoted), 2 class 1, 3 class 1 suspect.

// rot builds a rotation from its groups.
func rot(groups ...[]member) rotation {
	var r rotation
	for _, g := range groups {
		r.members = append(r.members, g...)
		r.ends = append(r.ends, len(r.members))
	}
	return r
}

// ms makes n members of partition part with priority prio, ids from id on.
func ms(id, n, part int, prio float64) []member {
	out := make([]member, n)
	for i := range out {
		out[i] = member{id: uint16(id + i), part: part, prio: prio, weight: 1}
	}
	return out
}

// ids renders a rotation as its groups' member ids.
func ids(r rotation) [][]uint16 {
	out := [][]uint16{}
	for g := 0; g < r.groups(); g++ {
		grp := []uint16{}
		for _, m := range r.group(g) {
			grp = append(grp, m.id)
		}
		out = append(out, grp)
	}
	return out
}

func TestGroupPolicyPlace(t *testing.T) {
	flat := policy{size: 4, dynamic: true}
	classed := policy{size: 4, dynamic: true, classed: true}
	for _, tc := range []struct {
		name string
		p    policy
		r    rotation
		part int
		want int
	}{
		{"no groups yet", flat, rot(), 0, -1},
		{"the last group has room", flat, rot(ms(0, 4, 0, 0), ms(4, 2, 0, 0)), 0, 1},
		{"a full last group opens a fresh one", flat, rot(ms(0, 4, 0, 0), ms(4, 4, 0, 0)), 0, -1},
		{"without an authority only the last group is a candidate", flat, rot(ms(0, 2, 0, 0), ms(2, 4, 0, 0)), 0, -1},
		{"an empty last group takes a healthy joiner", flat, rot(ms(0, 4, 0, 0), nil), 0, 1},
		{"an empty last group turns a suspect joiner away", flat, rot(ms(0, 4, 0, 0), nil), 1, -1},
		{"a suspect joiner never enters a healthy group", flat, rot(ms(0, 2, 0, 0)), 1, -1},
		{"a suspect joiner fills a suspect group", flat, rot(ms(0, 4, 0, 0), ms(4, 2, 1, 0)), 1, 1},
		{"a healthy joiner never enters a suspect group", flat, rot(ms(0, 2, 1, 0)), 0, -1},
		{"class purity: the newest group of the joiner's class", classed, rot(ms(0, 2, 2, 0), ms(2, 2, 0, 0)), 2, 0},
		{"class purity: another class's room is not the joiner's", classed, rot(ms(0, 2, 0, 0)), 2, -1},
		{"under an authority empty groups are passed over", classed, rot(ms(0, 2, 0, 0), nil), 0, 0},
		{"under an authority a full class opens a fresh group", classed, rot(ms(0, 4, 0, 0), ms(4, 1, 2, 0)), 0, -1},
		{"a suspect joiner stays out of its class's healthy groups", classed, rot(ms(0, 2, 2, 0)), 3, -1},
	} {
		if got := tc.p.place(tc.r, member{id: 99, part: tc.part}); got != tc.want {
			t.Errorf("%s: place = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestGroupPolicyOutOfBounds(t *testing.T) {
	flat := policy{size: 4, dynamic: true} // bounds [2, 6]
	for _, tc := range []struct {
		name string
		p    policy
		r    rotation
		want bool
	}{
		{"within bounds, the last group a runt", flat, rot(ms(0, 4, 0, 0), ms(4, 2, 0, 0), ms(6, 1, 0, 0)), false},
		{"at both bounds", flat, rot(ms(0, 6, 0, 0), ms(6, 2, 0, 0), ms(8, 4, 0, 0)), false},
		{"over 3G/2", flat, rot(ms(0, 7, 0, 0), ms(7, 4, 0, 0)), true},
		{"over 3G/2 at the end", flat, rot(ms(0, 4, 0, 0), ms(4, 7, 0, 0)), true},
		{"a runt before the last group", flat, rot(ms(0, 4, 0, 0), ms(4, 1, 0, 0), ms(5, 4, 0, 0)), true},
		{"an emptied group before the last", flat, rot(ms(0, 4, 0, 0), nil, ms(4, 4, 0, 0)), true},
		{"a suspect-only runt is exempt", flat, rot(ms(0, 4, 0, 0), ms(4, 1, 1, 0), ms(5, 4, 0, 0)), false},
		{"under an authority every class's runt is exempt", policy{size: 4, classed: true},
			rot(ms(0, 1, 0, 0), ms(1, 1, 2, 0), ms(2, 4, 2, 0)), false},
		{"under an authority 3G/2 still binds", policy{size: 4, classed: true}, rot(ms(0, 7, 2, 0), ms(7, 4, 0, 0)), true},
	} {
		if got := tc.p.outOfBounds(tc.r); got != tc.want {
			t.Errorf("%s: outOfBounds = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestGroupPolicyPlan(t *testing.T) {
	static := policy{size: 4}
	dynamic := policy{size: 4, dynamic: true}
	classed := policy{size: 4, classed: true}
	for _, tc := range []struct {
		name string
		p    policy
		r    rotation
		cur  int
		due  bool
		want [][]uint16 // nil: the groups stay as they are
	}{
		{"static without an authority keeps join order", static,
			rot(ms(0, 4, 0, 3), ms(4, 2, 0, 9)), 0, true, nil},
		{"static without an authority rebuilds once the bounds break", static,
			rot(ms(0, 1, 0, 0), ms(1, 4, 0, 0), ms(5, 4, 0, 0)), 1, false,
			[][]uint16{{1, 2, 3, 4}, {0, 5, 6, 7, 8}}},
		{"not due and within bounds", dynamic,
			rot(ms(0, 4, 0, 0), ms(4, 4, 0, 0)), 1, false, nil},
		{"frozen group first, the rest by descending priority, ids breaking ties", dynamic,
			rot(slices.Concat(ms(0, 2, 0, 1), ms(2, 2, 0, 5)), ms(4, 2, 0, 5), ms(6, 2, 0, 9)), 1, true,
			[][]uint16{{4, 5}, {6, 7, 2, 3}, {0, 1}}},
		{"static under an authority orders a class by id, not priority", classed,
			rot(ms(4, 2, 0, 9), ms(6, 2, 0, 0), ms(0, 2, 0, 1)), 1, true,
			[][]uint16{{6, 7}, {0, 1, 4, 5}}},
		{"an emptied current group is dropped, not re-frozen", dynamic,
			rot(ms(0, 4, 0, 0), nil, ms(4, 2, 0, 0)), 1, true,
			[][]uint16{{0, 1, 2, 3}, {4, 5}}},
		{"chunks never span a class", classed,
			rot(nil, slices.Concat(ms(0, 3, 2, 0), ms(3, 3, 0, 0))), 0, true,
			[][]uint16{{3, 4, 5}, {0, 1, 2}}},
		{"suspect clients get suspect-only groups", dynamic,
			rot(nil, slices.Concat(ms(0, 3, 1, 9), ms(3, 3, 0, 0))), 0, true,
			[][]uint16{{3, 4, 5}, {0, 1, 2}}},
		{"a trailing runt is absorbed within its partition", dynamic,
			rot(nil, ms(0, 5, 0, 0)), 0, true,
			[][]uint16{{0, 1, 2, 3, 4}}},
		{"a trailing runt is never absorbed across a partition", dynamic,
			rot(nil, slices.Concat(ms(0, 4, 0, 0), ms(4, 1, 1, 0))), 0, true,
			[][]uint16{{0, 1, 2, 3}, {4}}},
		{"a runt at the end merges backwards into the frozen group", dynamic,
			rot(ms(0, 2, 0, 0), ms(2, 1, 0, 0)), 0, true,
			[][]uint16{{0, 1, 2}}},
		{"a runt never merges backwards across a partition", dynamic,
			rot(ms(0, 2, 0, 0), ms(2, 1, 1, 0)), 0, true,
			[][]uint16{{0, 1}, {2}}},
		{"a runt never merges backwards past 3G/2", dynamic,
			rot(ms(0, 6, 0, 0), ms(6, 1, 0, 0)), 0, true,
			[][]uint16{{0, 1, 2, 3, 4, 5}, {6}}},
	} {
		next, ok := tc.p.plan(tc.r, tc.cur, tc.due, rotation{})
		if ok != (tc.want != nil) || ok && !reflect.DeepEqual(ids(next), tc.want) {
			t.Errorf("%s: plan %v (%v), want %v", tc.name, ids(next), ok, tc.want)
		}
	}
}

func TestGroupPolicyBudget(t *testing.T) {
	weighted := func(id, n int, prio, w float64) []member {
		out := ms(id, n, 0, prio)
		for i := range out {
			out[i].weight = w
		}
		return out
	}
	for _, tc := range []struct {
		name string
		p    policy
		r    rotation
		want []float64 // per group
	}{
		{"one group runs the full slice", policy{size: 4, dynamic: true, classed: true},
			rot(ms(0, 3, 0, 7)), []float64{1}},
		{"static without an authority", policy{size: 4},
			rot(ms(0, 2, 0, 9), ms(2, 2, 0, 1)), []float64{1, 1}},
		{"priority within its clamps", policy{size: 4, dynamic: true},
			rot(ms(0, 2, 0, 3), ms(2, 2, 0, 2)), []float64{1.2, 0.8}},
		{"priority clamped at both ends", policy{size: 4, dynamic: true},
			rot(ms(0, 2, 0, 4), ms(2, 2, 0, 1)), []float64{1.5, 0.75}},
		{"no priority measured yet", policy{size: 4, dynamic: true},
			rot(ms(0, 2, 0, 0), ms(2, 2, 0, 0)), []float64{1, 1}},
		{"an emptied group", policy{size: 4, dynamic: true},
			rot(ms(0, 2, 0, 3), nil), []float64{1, 1}},
		{"tenant weight clamped above", policy{size: 4, classed: true},
			rot(weighted(0, 1, 0, 8), weighted(1, 3, 0, 1)), []float64{2, 1 / 2.75}},
		{"tenant weight clamped below", policy{size: 4, classed: true},
			rot(weighted(0, 3, 0, 1), weighted(3, 1, 0, 0.1)), []float64{1 / 0.775, 0.25}},
		{"the two terms multiply", policy{size: 4, dynamic: true, classed: true},
			rot(weighted(0, 1, 4, 8), weighted(1, 3, 1, 1)), []float64{1.5 * 2, 0.75 / 2.75}},
	} {
		for g, want := range tc.want {
			if got := tc.p.budget(tc.r, g); math.Abs(got-want) > 1e-12 {
				t.Errorf("%s: group %d budget %v, want %v", tc.name, g, got, want)
			}
		}
	}
}

// TestGroupPolicyPlanProperties checks every plan over seeded random
// snapshots: it partitions its input exactly; a non-empty current group
// comes first with its members unchanged and in order, and only its own
// partition merges in behind them; every rebuilt group is partition-pure,
// at most 3G/2, and sorted; and only a partition's trailing group may sit
// under G/2.
func TestGroupPolicyPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10_000; n++ {
		p := policy{size: 2 + rng.Intn(10), dynamic: rng.Intn(2) == 0, classed: rng.Intn(2) == 0}
		parts := 2
		if p.classed {
			parts = 6
		}
		var r rotation
		id := 0
		for g := 1 + rng.Intn(6); g > 0; g-- {
			for k := rng.Intn(2 * p.size); k > 0; k-- {
				r.members = append(r.members, member{id: uint16(id), part: rng.Intn(parts), prio: float64(rng.Intn(4))})
				id++
			}
			r.ends = append(r.ends, len(r.members))
		}
		rng.Shuffle(len(r.members), func(i, j int) { r.members[i], r.members[j] = r.members[j], r.members[i] })
		cur, due := rng.Intn(r.groups()), rng.Intn(2) == 0
		next, ok := p.plan(r, cur, due, rotation{})
		if want := p.outOfBounds(r) || due && (p.dynamic || p.classed); ok != want {
			t.Fatalf("snapshot %d (%+v, cur %d, due %v): planned %v, want %v", n, p, cur, due, ok, want)
		}
		if !ok {
			continue
		}
		fail := func(why string, g int) {
			t.Fatalf("snapshot %d (%+v, cur %d): group %d %s\nin   %v\nplan %v", n, p, cur, g, why, ids(r), ids(next))
		}
		in, out := flat(r), flat(next)
		slices.Sort(in)
		slices.Sort(out)
		if !slices.Equal(in, out) {
			fail("is not all: the plan does not partition its input", 0)
		}
		// before reports whether a sorts ahead of b within a partition.
		before := func(a, b member) bool {
			if p.dynamic && a.prio != b.prio {
				return a.prio > b.prio
			}
			return a.id < b.id
		}
		first := 0 // the first rebuilt group
		if frozen := r.group(cur); len(frozen) > 0 {
			first = 1
			head := next.group(0)
			if len(head) < len(frozen) || !slices.Equal(head[:len(frozen)], frozen) {
				fail("is not the current group, first and unchanged", 0)
			}
			for _, m := range head[len(frozen):] {
				if m.part != frozen[0].part {
					fail("took a runt of another partition", 0)
				}
			}
		}
		for g := first; g < next.groups(); g++ {
			grp := next.group(g)
			if len(grp) == 0 || len(grp) > p.size*3/2 {
				fail("is empty or over 3G/2", g)
			}
			for i := 1; i < len(grp); i++ {
				if grp[i].part != grp[0].part {
					fail("spans two partitions", g)
				}
				if !before(grp[i-1], grp[i]) {
					fail("is out of order", g)
				}
			}
			if g > first && next.group(g - 1)[0].part > grp[0].part {
				fail("is out of partition order", g)
			}
			trailing := g == next.groups()-1 || next.group(g + 1)[0].part != grp[0].part
			if len(grp) < p.size/2 && !trailing {
				fail("is a runt ahead of its partition's trailing group", g)
			}
		}
	}
}

// flat lists a rotation's member ids in order.
func flat(r rotation) []uint16 {
	out := make([]uint16, len(r.members))
	for i, m := range r.members {
		out[i] = m.id
	}
	return out
}

// TestGroupPolicyIsPure keeps the policy a function of its snapshot: the
// file may import the standard library and nothing else, so no engine,
// host or simulator state can leak into a decision.
func TestGroupPolicyIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "group.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if pkg, err := build.Import(path, "", build.FindOnly); err != nil || !pkg.Goroot {
			t.Errorf("group.go imports %s, which is not in the standard library", path)
		}
	}
}

// TestSliceBudgetIgnoresPinnedClients pins the budget's population to the
// grouped clients. A pinned client never rotates and its priority stays 0
// (settlePinned does not update it), so counting it would pull the
// population mean down and stretch every group's dynamic slice.
func TestSliceBudgetIgnoresPinnedClients(t *testing.T) {
	c := cluster.New(cluster.Default(2))
	defer c.Close()
	cfg := DefaultServerConfig()
	cfg.GroupSize = 2
	s := NewServer(c.Hosts[0], cfg)
	for i := 0; i < 4; i++ {
		s.Connect(c.Hosts[1], sim.NewSignal(c.Env))
	}
	for i := 0; i < cfg.ReservedZones; i++ {
		if s.ConnectLatencySensitive(c.Hosts[1], sim.NewSignal(c.Env)) == nil {
			t.Fatal("reserved zone refused")
		}
	}
	s.Start()
	c.Env.RunUntil(0) // the first boundary places the joiners
	// Groups {0,1} and {2,3}: means 2 and 4 over a grouped mean of 3.
	for id, p := range []float64{2, 2, 4, 4} {
		s.clients[id].priority = p
	}
	if got := ids(s.snapshot()); !reflect.DeepEqual(got, [][]uint16{{0, 1}, {2, 3}}) {
		t.Errorf("snapshot %v, want the grouped clients only", got)
	}
	for g, want := range []sim.Duration{75 * sim.Microsecond, 133333} {
		if got := s.sliceFor(g); got != want {
			t.Errorf("group %d: slice %d ns, want %d", g, got, want)
		}
	}
}
