package stats

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %f", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	err := quick.Check(func(seed uint64, n uint16) bool {
		nn := int(n%1000) + 1
		r := NewRNG(seed)
		v := r.Intn(nn)
		return v >= 0 && v < nn
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %f, want ~1", variance)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(5)
	z := NewZipf(r, 1000, 0.99)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Item 0 must be far more popular than item 500.
	if counts[0] < 20*counts[500]+1 {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[500]=%d", counts[0], counts[500])
	}
	// Top 5% of keys should absorb the majority of accesses.
	top := 0
	for i := 0; i < 50; i++ {
		top += counts[i]
	}
	if float64(top)/n < 0.5 {
		t.Fatalf("top 5%% keys got only %.1f%% of accesses", 100*float64(top)/n)
	}
}

func TestZipfRange(t *testing.T) {
	r := NewRNG(9)
	z := NewZipf(r, 50, 0.9)
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v >= 50 {
			t.Fatalf("zipf out of range: %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Median() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want 1/100", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 0.01 {
		t.Fatalf("Mean = %f, want 50.5", m)
	}
	med := h.Median()
	if med < 45 || med > 55 {
		t.Fatalf("Median = %d, want ~50", med)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	r := NewRNG(21)
	for i := 0; i < 5000; i++ {
		h.Record(int64(r.Intn(1000000)) + 1)
	}
	prev := int64(0)
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%f: %d < %d", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Property: a recorded value's bucket lower bound is within ~7% below it.
	err := quick.Check(func(raw uint32) bool {
		v := int64(raw%100000000) + 1
		idx := bucketIndex(v)
		low := bucketLow(idx)
		if low > v {
			return false
		}
		return float64(v-low)/float64(v) < 0.07
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// Interpolated quantiles must track an exact sorted-sample reference to
	// well under one bucket width (~6.25% relative at 16 buckets/octave),
	// across distribution shapes.
	dists := map[string]func(r *RNG) int64{
		"uniform":   func(r *RNG) int64 { return int64(r.Intn(1_000_000)) + 1 },
		"exp":       func(r *RNG) int64 { return int64(r.Exp(50_000)) + 1 },
		"lognormal": func(r *RNG) int64 { return int64(r.LogNormal(10, 1.5)) + 1 },
	}
	for name, gen := range dists {
		h := NewHistogram()
		r := NewRNG(99)
		samples := make([]int64, 0, 20000)
		for i := 0; i < 20000; i++ {
			v := gen(r)
			h.Record(v)
			samples = append(samples, v)
		}
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got := h.Quantile(q)
			want := Percentile(samples, q*100)
			relErr := math.Abs(float64(got-want)) / float64(want)
			if relErr > 0.07 {
				t.Errorf("%s q=%v: interpolated %d vs exact %d (rel err %.3f)", name, q, got, want, relErr)
			}
		}
	}
}

func TestHistogramQuantileSpansBucket(t *testing.T) {
	// All mass in one bucket: quantiles must move within the bucket rather
	// than snapping to its lower bound.
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(1 << 20) // single value, single bucket
	}
	lo := h.Quantile(0.01)
	hi := h.Quantile(0.99)
	if hi < lo {
		t.Fatalf("quantiles not monotone: %d > %d", lo, hi)
	}
	// Clamped to observed min/max despite interpolation.
	if lo < h.Min() || hi > h.Max() {
		t.Fatalf("quantiles escaped [min,max]: %d..%d vs %d..%d", lo, hi, h.Min(), h.Max())
	}
}

func TestHistogramCDF(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(10)
	}
	for i := 0; i < 100; i++ {
		h.Record(1000)
	}
	vals, fracs := h.CDF()
	if len(vals) != 2 {
		t.Fatalf("CDF points = %d, want 2", len(vals))
	}
	if math.Abs(fracs[0]-0.5) > 1e-9 || math.Abs(fracs[1]-1.0) > 1e-9 {
		t.Fatalf("CDF fractions = %v, want [0.5 1.0]", fracs)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(5)
	a.Record(10)
	b.Record(1000)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("Count = %d, want 3", a.Count())
	}
	if a.Max() < 900 {
		t.Fatalf("Max = %d, want ~1000", a.Max())
	}
}

func TestHistogramBitLenBuckets(t *testing.T) {
	// Each sample alone, then all of them merged, must fold into the bucket
	// bits.Len64 names; samples ≤ 1 share bucket 1.
	vals := []int64{0, 1, 2, 3}
	for k := 2; k <= 62; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	var want [64]uint64
	merged := NewHistogram()
	for _, v := range vals {
		bit := bits.Len64(uint64(v))
		if v <= 1 {
			bit = 1
		}
		var one [64]uint64
		one[bit] = 1
		h := NewHistogram()
		h.Record(v)
		if got := h.BitLenBuckets(); got != one {
			t.Errorf("Record(%d): buckets %v, want 1 in bucket %d", v, got, bit)
		}
		want[bit]++
		merged.Merge(h)
	}
	if got := merged.BitLenBuckets(); got != want {
		t.Fatalf("merged buckets\n got %v\nwant %v", got, want)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear the histogram")
	}
}

func TestPercentileExact(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(s, 50); got != 5 {
		t.Fatalf("P50 = %d, want 5", got)
	}
	if got := Percentile(s, 100); got != 10 {
		t.Fatalf("P100 = %d, want 10", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("P50(nil) = %d, want 0", got)
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.P99Ns < s.MedianNs {
		t.Fatal("P99 < median")
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
