package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flowercdn/internal/model"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Fatal("NaN alpha accepted")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 100)
	const trials = 200000
	for i := 0; i < trials; i++ {
		counts[z.Sample(rng)]++
	}
	// Rank 0 must be the most popular, and close to its theoretical mass.
	for i := 1; i < 100; i++ {
		if counts[i] > counts[0] {
			t.Fatalf("rank %d more popular than rank 0", i)
		}
	}
	got := float64(counts[0]) / trials
	want := z.Prob(0)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("rank-0 mass %.4f, theory %.4f", got, want)
	}
	// Ratio rank0/rank9 ≈ 10^0.8 ≈ 6.3.
	ratio := float64(counts[0]) / float64(counts[9]+1)
	if ratio < 4 || ratio > 9 {
		t.Fatalf("rank0/rank9 ratio %.2f implausible for α=0.8", ratio)
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z, _ := NewZipf(10, 0)
	for i := 0; i < 10; i++ {
		if math.Abs(z.Prob(i)-0.1) > 1e-9 {
			t.Fatalf("alpha=0 should be uniform, Prob(%d)=%v", i, z.Prob(i))
		}
	}
}

// Property: probabilities are non-increasing in rank and sum to 1.
func TestQuickZipfDistribution(t *testing.T) {
	prop := func(nRaw uint8, aRaw uint8) bool {
		n := int(nRaw%200) + 1
		alpha := float64(aRaw%30) / 10 // 0.0 .. 2.9
		z, err := NewZipf(n, alpha)
		if err != nil {
			return false
		}
		sum := 0.0
		prev := math.Inf(1)
		for i := 0; i < n; i++ {
			p := z.Prob(i)
			if p < 0 || p > prev+1e-12 {
				return false
			}
			prev = p
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfProbOutOfRange(t *testing.T) {
	z, _ := NewZipf(5, 1)
	if z.Prob(-1) != 0 || z.Prob(5) != 0 {
		t.Fatal("out-of-range prob should be 0")
	}
	if z.N() != 5 || z.Alpha() != 1 {
		t.Fatal("accessors wrong")
	}
}

func genCfg(seed int64) Config {
	sites := model.MakeSites(3)
	return Config{
		Seed:           seed,
		Sites:          sites,
		ObjectsPerSite: 50,
		ZipfAlpha:      0.8,
		QueryRate:      6,
		PoolSizes: [][]int{
			{10, 20, 5},
			{10, 20, 5},
			{10, 20, 5},
		},
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := genCfg(1)
	bad.Sites = nil
	bad.PoolSizes = nil
	if _, err := New(bad); err == nil {
		t.Fatal("no sites accepted")
	}
	bad = genCfg(1)
	bad.ObjectsPerSite = 0
	if _, err := New(bad); err == nil {
		t.Fatal("no objects accepted")
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		bad = genCfg(1)
		bad.QueryRate = rate
		if _, err := New(bad); err == nil {
			t.Fatalf("rate %v accepted", rate)
		}
	}
	bad = genCfg(1)
	bad.PoolSizes = bad.PoolSizes[:2]
	if _, err := New(bad); err == nil {
		t.Fatal("pool/site mismatch accepted")
	}
	bad = genCfg(1)
	bad.PoolSizes[1] = []int{0, 0, 0}
	if _, err := New(bad); err == nil {
		t.Fatal("empty site pool accepted")
	}
	bad = genCfg(1)
	bad.PoolSizes[1] = []int{-1, 2, 3}
	if _, err := New(bad); err == nil {
		t.Fatal("negative pool accepted")
	}
}

func TestGeneratorRate(t *testing.T) {
	g, err := New(genCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	var last Query
	for i := 0; i < 600; i++ {
		last = g.Next()
	}
	// 600 queries at 6/s ⇒ ~100 s.
	secs := last.At.Seconds()
	if secs < 99 || secs > 101 {
		t.Fatalf("600 queries span %.1f s, want ~100", secs)
	}
	if g.Count() != 600 {
		t.Fatalf("count = %d", g.Count())
	}
}

func TestGeneratorBoundsAndDeterminism(t *testing.T) {
	g1, _ := New(genCfg(4))
	g2, _ := New(genCfg(4))
	for i := 0; i < 2000; i++ {
		q1, q2 := g1.Next(), g2.Next()
		if q1 != q2 {
			t.Fatalf("determinism broken at %d: %+v vs %+v", i, q1, q2)
		}
		if q1.SiteIdx < 0 || q1.SiteIdx >= 3 {
			t.Fatalf("site out of range: %+v", q1)
		}
		if q1.Locality < 0 || q1.Locality >= 3 {
			t.Fatalf("locality out of range: %+v", q1)
		}
		pool := genCfg(4).PoolSizes[q1.SiteIdx][q1.Locality]
		if q1.Member < 0 || q1.Member >= pool {
			t.Fatalf("member %d outside pool %d", q1.Member, pool)
		}
		if q1.Object.Num < 0 || q1.Object.Num >= 50 {
			t.Fatalf("object out of range: %+v", q1.Object)
		}
		if q1.Object.Site != q1.Site {
			t.Fatal("object belongs to wrong site")
		}
	}
}

func TestLocalityWeightingFollowsPools(t *testing.T) {
	g, _ := New(genCfg(5))
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[g.Next().Locality]++
	}
	// Pools are 10/20/5 ⇒ locality 1 should get ~2× locality 0 and ~4×
	// locality 2.
	r10 := float64(counts[1]) / float64(counts[0])
	r12 := float64(counts[1]) / float64(counts[2])
	if r10 < 1.7 || r10 > 2.3 {
		t.Fatalf("loc1/loc0 = %.2f, want ~2", r10)
	}
	if r12 < 3.4 || r12 > 4.6 {
		t.Fatalf("loc1/loc2 = %.2f, want ~4", r12)
	}
}

func TestPerSitePopularityIndependent(t *testing.T) {
	// The same popularity rank should map to different object numbers on
	// different sites (no correlation between communities, §6.1).
	g, _ := New(genCfg(6))
	top := make(map[int]map[int]int) // site → object → count
	for i := 0; i < 30000; i++ {
		q := g.Next()
		if top[q.SiteIdx] == nil {
			top[q.SiteIdx] = map[int]int{}
		}
		top[q.SiteIdx][q.Object.Num]++
	}
	best := make([]int, 3)
	for si := 0; si < 3; si++ {
		bestN, bestC := -1, -1
		for obj, c := range top[si] {
			if c > bestC {
				bestN, bestC = obj, c
			}
		}
		best[si] = bestN
	}
	if best[0] == best[1] && best[1] == best[2] {
		t.Fatalf("all sites share the same hottest object %d — permutations broken", best[0])
	}
}

func TestGeneratorEmitsInternedRefs(t *testing.T) {
	// With an interner configured, every emitted query carries the interned
	// ref of its Object — identical streams with and without the interner
	// apart from that stamp (same rng draws).
	cfg := genCfg(9)
	in := model.NewInterner(model.MakeSites(5), cfg.ObjectsPerSite) // superset; actives lead
	withRefs := cfg
	withRefs.Interner = in
	g1, err := New(withRefs)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := New(cfg)
	for i := 0; i < 500; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Ref == model.NoRef {
			t.Fatal("interner configured but Ref unset")
		}
		if a.Ref != in.Ref(a.Object) {
			t.Fatalf("Ref %d does not intern %v", a.Ref, a.Object)
		}
		if b.Ref != model.NoRef {
			t.Fatal("no interner but Ref set")
		}
		a.Ref, b.Ref = 0, 0
		if a != b {
			t.Fatalf("interner changed the stream: %+v vs %+v", a, b)
		}
	}
}

func TestGeneratorRejectsMismatchedInterner(t *testing.T) {
	cfg := genCfg(9)
	cfg.Interner = model.NewInterner(model.MakeSites(3), cfg.ObjectsPerSite+1)
	if _, err := New(cfg); err == nil {
		t.Fatal("objects-per-site mismatch accepted")
	}
	cfg = genCfg(9)
	cfg.Interner = model.NewInterner([]model.SiteID{"zz-other", "ws-000", "ws-001"}, cfg.ObjectsPerSite)
	if _, err := New(cfg); err == nil {
		t.Fatal("site-index mismatch accepted")
	}
}
