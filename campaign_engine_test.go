package flowercdn

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"flowercdn/internal/simkernel"
)

func campaignPoints(t *testing.T, n int) []Point {
	t.Helper()
	points := make([]Point, n)
	for i := range points {
		p := tinyParams(PointSeed(9, i))
		p.Duration = 15 * simkernel.Minute
		kind := KindFlower
		if i%3 == 2 {
			kind = KindSquirrel
		}
		points[i] = Point{Label: strconv.Itoa(i), Params: p, Kind: kind}
	}
	return points
}

// The acceptance property of the parallel engine: a campaign run with
// N>1 workers produces byte-identical metrics.Report values (and stats)
// to the sequential run, point for point.
func TestCampaignParallelMatchesSequential(t *testing.T) {
	points := campaignPoints(t, 6)
	seq, err := Campaign{Parallel: 1}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Campaign{Parallel: 4}.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Errorf("point %d: parallel report differs from sequential\nseq: %+v\npar: %+v",
				i, seq[i].Report, par[i].Report)
		}
		if seq[i].Stats != par[i].Stats {
			t.Errorf("point %d: stats differ: %+v vs %+v", i, seq[i].Stats, par[i].Stats)
		}
		if seq[i].Kind != par[i].Kind {
			t.Errorf("point %d: kind differs", i)
		}
	}
}

// Sweeps driven through Params.Parallel must also be order-stable.
func TestSweepParallelMatchesSequential(t *testing.T) {
	p := tinyParams(4)
	p.Duration = 15 * simkernel.Minute
	seqRows, err := Table2a(p, []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	p.Parallel = 3
	parRows, err := Table2a(p, []int{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seqRows {
		if seqRows[i].Label != parRows[i].Label {
			t.Fatalf("row %d label: %s vs %s", i, seqRows[i].Label, parRows[i].Label)
		}
		if !reflect.DeepEqual(seqRows[i].Result.Report, parRows[i].Result.Report) {
			t.Errorf("row %d: parallel sweep report differs from sequential", i)
		}
	}
}

func TestCampaignErrorPropagates(t *testing.T) {
	good := tinyParams(1)
	good.Duration = 10 * simkernel.Minute
	bad := good
	bad.Duration = 0 // fails validation
	points := []Point{
		{Label: "good", Params: good},
		{Label: "bad", Params: bad},
		{Label: "good2", Params: good},
	}
	if _, err := (Campaign{Parallel: 1}).Run(points); err == nil {
		t.Fatal("sequential campaign swallowed the error")
	} else if !strings.Contains(err.Error(), "point 1 (bad)") {
		t.Fatalf("sequential error does not name the failing point: %v", err)
	}
	if _, err := (Campaign{Parallel: 3}).Run(points); err == nil {
		t.Fatal("parallel campaign swallowed the error")
	} else if !strings.Contains(err.Error(), "point 1 (bad)") {
		t.Fatalf("parallel error does not name the failing point: %v", err)
	}
}

func TestCampaignWorkerResolution(t *testing.T) {
	cases := []struct {
		parallel, points, want int
	}{
		{0, 5, 1},
		{1, 5, 1},
		{4, 5, 4},
		{8, 3, 3}, // never more workers than points
	}
	for _, c := range cases {
		if got := (Campaign{Parallel: c.parallel}).workers(c.points); got != c.want {
			t.Errorf("workers(parallel=%d, points=%d) = %d, want %d", c.parallel, c.points, got, c.want)
		}
	}
	if got := (Campaign{Parallel: -1}).workers(1000); got < 1 {
		t.Errorf("negative parallel resolved to %d workers", got)
	}
}

func TestPointSeedPure(t *testing.T) {
	if PointSeed(7, 3) != PointSeed(7, 3) {
		t.Fatal("PointSeed not deterministic")
	}
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := PointSeed(7, i)
		if seen[s] {
			t.Fatalf("PointSeed collision at idx %d", i)
		}
		seen[s] = true
	}
	if PointSeed(7, 0) == PointSeed(8, 0) {
		t.Fatal("campaign seed ignored")
	}
}

func TestSweepGrid(t *testing.T) {
	p := tinyParams(5)
	p.Duration = 10 * simkernel.Minute
	p.Parallel = 4
	rows, err := SweepGrid(p,
		[]int{3},
		[]simkernel.Time{3 * simkernel.Minute, 6 * simkernel.Minute},
		[]int{6, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("grid cells = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Report.TotalQueries == 0 {
			t.Fatalf("cell %s ran no queries", r.Label)
		}
		if r.Params.Localities != 3 || !strings.HasPrefix(r.Label, "k=3 ") {
			t.Fatalf("cell %s has wrong coordinates", r.Label)
		}
	}
	// Distinct cells must have received distinct derived seeds.
	if rows[0].Result.Params.Seed == rows[1].Result.Params.Seed {
		t.Fatal("grid cells share a seed")
	}
}
