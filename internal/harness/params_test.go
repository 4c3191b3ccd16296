// Package harness_test holds black-box tests of the configuration surface
// of package flowercdn: Params.Validate, the runs that take a Params, and the
// number of settable fields on each configuration struct. They use only the
// exported API, so they live outside the root package.
package harness_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"flowercdn"
	"flowercdn/internal/chord"
	"flowercdn/internal/core"
	"flowercdn/internal/metrics"
	"flowercdn/internal/overlay"
	"flowercdn/internal/simkernel"
	"flowercdn/internal/simnet"
	"flowercdn/internal/squirrel"
	"flowercdn/internal/topology"
	"flowercdn/internal/workload"
)

// fastParams is even smaller than flowercdn.ScaledParams, for unit-test
// speed.
func fastParams(seed int64) flowercdn.Params {
	p := flowercdn.ScaledParams(seed)
	p.Duration = 30 * simkernel.Minute
	p.QueryRate = 2
	p.Websites = 8
	p.ActiveSites = 2
	p.ObjectsPerSite = 30
	p.ClientsPerSite = 24
	p.MaxOverlaySize = 10
	p.TopoNodes = 500
	p.TGossip = 3 * simkernel.Minute
	p.TKeepalive = 3 * simkernel.Minute
	return p
}

func TestParamsValidation(t *testing.T) {
	p := fastParams(9)
	p.Duration = 0
	if _, err := flowercdn.RunFlower(p); err == nil {
		t.Fatal("zero duration accepted")
	}
	p = fastParams(9)
	p.QueryRate = 0
	if _, err := flowercdn.RunSquirrel(p); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// TestParamsValidate: every input BuildPools would mishandle is rejected up
// front, through the same door a run takes. At the parent commit the
// wrong-length weights panicked in BuildPools (index out of range) and the
// zero-sum weights divided by zero and ran one-client pools with a nil error.
// A directory crash or degrade that cannot act (no such position, a crash
// outside the run, an empty window, a factor ≤ 1) used to be skipped without
// a word, measuring a run without it. A NaN or infinite push threshold ran
// with no member ever pushing, and a negative mean downtime ran its churn as
// permanent failures. A content peer's round runs both periodic halves on
// one ticker, so the longer period must be a whole multiple of the shorter.
func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		edit func(*flowercdn.Params)
		ok   bool
	}{
		{"scaled preset", func(*flowercdn.Params) {}, true},
		{"explicit weights", func(p *flowercdn.Params) { p.LocalityWeights = []float64{3, 2, 1} }, true},
		{"a locality weighted zero", func(p *flowercdn.Params) { p.LocalityWeights = []float64{1, 0, 1} }, true},
		{"zero duration", func(p *flowercdn.Params) { p.Duration = 0 }, false},
		{"zero query rate", func(p *flowercdn.Params) { p.QueryRate = 0 }, false},
		{"more active sites than websites", func(p *flowercdn.Params) { p.ActiveSites = p.Websites + 1 }, false},
		{"no clients", func(p *flowercdn.Params) { p.ClientsPerSite = 0 }, false},
		{"no localities", func(p *flowercdn.Params) { p.Localities = 0 }, false},
		{"fewer weights than localities", func(p *flowercdn.Params) { p.LocalityWeights = []float64{1, 0} }, false},
		{"more weights than localities", func(p *flowercdn.Params) { p.LocalityWeights = []float64{1, 1, 1, 1} }, false},
		{"all-zero weights", func(p *flowercdn.Params) { p.LocalityWeights = []float64{0, 0, 0} }, false},
		{"a negative weight", func(p *flowercdn.Params) { p.LocalityWeights = []float64{2, -1, 1} }, false},
		{"a NaN weight", func(p *flowercdn.Params) { p.LocalityWeights = []float64{1, math.NaN(), 1} }, false},
		{"a directory crash", func(p *flowercdn.Params) {
			p.DirCrashes = []flowercdn.DirCrash{{SiteIdx: 1, Locality: 2, At: simkernel.Minute}}
		}, true},
		{"a crash of site ActiveSites", func(p *flowercdn.Params) { p.DirCrashes = []flowercdn.DirCrash{{SiteIdx: p.ActiveSites}} }, false},
		{"a crash of a negative site", func(p *flowercdn.Params) { p.DirCrashes = []flowercdn.DirCrash{{SiteIdx: -1}} }, false},
		{"a crash in locality Localities", func(p *flowercdn.Params) { p.DirCrashes = []flowercdn.DirCrash{{Locality: p.Localities}} }, false},
		{"a crash in a negative locality", func(p *flowercdn.Params) { p.DirCrashes = []flowercdn.DirCrash{{Locality: -1}} }, false},
		{"a crash at the end of the run", func(p *flowercdn.Params) { p.DirCrashes = []flowercdn.DirCrash{{At: p.Duration}} }, false},
		{"a crash before the run", func(p *flowercdn.Params) { p.DirCrashes = []flowercdn.DirCrash{{At: -1}} }, false},
		{"a directory degrade", func(p *flowercdn.Params) {
			p.DirDegrades = []flowercdn.DirDegrade{{SiteIdx: 1, Locality: 2, Start: simkernel.Minute, End: 5 * simkernel.Minute, Factor: 1.5}}
		}, true},
		{"a degrade of site ActiveSites", func(p *flowercdn.Params) {
			p.DirDegrades = []flowercdn.DirDegrade{{SiteIdx: p.ActiveSites, End: 1, Factor: 2}}
		}, false},
		{"a degrade in a negative locality", func(p *flowercdn.Params) { p.DirDegrades = []flowercdn.DirDegrade{{Locality: -1, End: 1, Factor: 2}} }, false},
		{"a degrade in locality Localities", func(p *flowercdn.Params) {
			p.DirDegrades = []flowercdn.DirDegrade{{Locality: p.Localities, End: 1, Factor: 2}}
		}, false},
		{"a degrade ending at its start", func(p *flowercdn.Params) { p.DirDegrades = []flowercdn.DirDegrade{{Start: 5, End: 5, Factor: 2}} }, false},
		{"a degrade ending before its start", func(p *flowercdn.Params) { p.DirDegrades = []flowercdn.DirDegrade{{Start: 5, End: 4, Factor: 2}} }, false},
		{"a degrade by factor 1", func(p *flowercdn.Params) { p.DirDegrades = []flowercdn.DirDegrade{{End: 1, Factor: 1}} }, false},
		{"a degrade by a NaN factor", func(p *flowercdn.Params) { p.DirDegrades = []flowercdn.DirDegrade{{End: 1, Factor: math.NaN()}} }, false},
		{"a NaN query rate", func(p *flowercdn.Params) { p.QueryRate = math.NaN() }, false},
		{"an infinite query rate", func(p *flowercdn.Params) { p.QueryRate = math.Inf(1) }, false},
		{"no objects per site", func(p *flowercdn.Params) { p.ObjectsPerSite = 0 }, false},
		{"churn", func(p *flowercdn.Params) { p.ChurnPerHour = 30 }, true},
		{"a negative churn rate", func(p *flowercdn.Params) { p.ChurnPerHour = -1 }, false},
		{"a NaN churn rate", func(p *flowercdn.Params) { p.ChurnPerHour = math.NaN() }, false},
		{"an infinite churn rate", func(p *flowercdn.Params) { p.ChurnPerHour = math.Inf(1) }, false},
		{"churn with rejoins", func(p *flowercdn.Params) { p.ChurnPerHour, p.ChurnMeanDowntime = 30, simkernel.Minute }, true},
		{"a negative mean downtime", func(p *flowercdn.Params) { p.ChurnPerHour, p.ChurnMeanDowntime = 30, -simkernel.Minute }, false},
		{"a push threshold of 0.9", func(p *flowercdn.Params) { p.PushThreshold = 0.9 }, true},
		{"a NaN push threshold", func(p *flowercdn.Params) { p.PushThreshold = math.NaN() }, false},
		{"an infinite push threshold", func(p *flowercdn.Params) { p.PushThreshold = math.Inf(1) }, false},
		{"a negative infinite push threshold", func(p *flowercdn.Params) { p.PushThreshold = math.Inf(-1) }, false},
		{"periods 5m/5m", func(p *flowercdn.Params) { p.TGossip, p.TKeepalive = 5*simkernel.Minute, 5*simkernel.Minute }, true},
		{"periods 5m/1m", func(p *flowercdn.Params) { p.TGossip, p.TKeepalive = 5*simkernel.Minute, simkernel.Minute }, true},
		{"periods 30s/1h", func(p *flowercdn.Params) { p.TGossip, p.TKeepalive = 30*simkernel.Second, simkernel.Hour }, true},
		{"periods 3m/2m, which do not nest", func(p *flowercdn.Params) { p.TGossip, p.TKeepalive = 3*simkernel.Minute, 2*simkernel.Minute }, false},
		{"periods 5s/1m, shorter than the failure-detection timeout", func(p *flowercdn.Params) { p.TGossip, p.TKeepalive = 5*simkernel.Second, simkernel.Minute }, false},
		{"periods 10s/1m", func(p *flowercdn.Params) { p.TGossip, p.TKeepalive = 10*simkernel.Second, simkernel.Minute }, true},
		{"zero keepalive period", func(p *flowercdn.Params) { p.TKeepalive = 0 }, true},
		{"a negative keepalive period", func(p *flowercdn.Params) { p.TKeepalive = -500 * simkernel.Millisecond }, false},
		{"instance bits 1", func(p *flowercdn.Params) { p.InstanceBits = 1 }, true},
		{"instance bits 40, beyond the key", func(p *flowercdn.Params) { p.InstanceBits = 40 }, false},
		{"instance bits 28, no room for a website id", func(p *flowercdn.Params) { p.InstanceBits = 28 }, false},
		{"instance bits 26, 12 websites in 2 id bits", func(p *flowercdn.Params) { p.Websites, p.InstanceBits = 12, 26 }, false},
		{"the fault storm", func(p *flowercdn.Params) { p.Faults = flowercdn.FaultStormParams(9).Faults }, true},
		{"the gray storm", func(p *flowercdn.Params) { p.Faults = flowercdn.GrayStormParams(9).Faults }, true},
		{"a NaN loss probability", func(p *flowercdn.Params) { p.Faults = &simnet.FaultConfig{LossProb: math.NaN()} }, false},
		{"a negative loss probability", func(p *flowercdn.Params) { p.Faults = &simnet.FaultConfig{LossProb: -0.5} }, false},
		{"a loss probability of 2", func(p *flowercdn.Params) { p.Faults = &simnet.FaultConfig{LossProb: 2} }, false},
		{"a negative jitter", func(p *flowercdn.Params) { p.Faults = &simnet.FaultConfig{JitterProb: 0.1, JitterMaxMs: -500} }, false},
		{"a negative spike", func(p *flowercdn.Params) { p.Faults = &simnet.FaultConfig{SpikeProb: 0.1, SpikeMs: -500} }, false},
		{"an infinite spike", func(p *flowercdn.Params) { p.Faults = &simnet.FaultConfig{SpikeProb: 0.1, SpikeMs: math.Inf(1)} }, false},
		{"an inverted partition window", func(p *flowercdn.Params) {
			p.Faults = &simnet.FaultConfig{Partitions: []simnet.PartitionWindow{{Start: simkernel.Minute, End: simkernel.Second}}}
		}, false},
		{"a partition of locality 9", func(p *flowercdn.Params) {
			p.Faults = &simnet.FaultConfig{Partitions: []simnet.PartitionWindow{{Locality: 9, End: simkernel.Minute}}}
		}, false},
		{"one-way loss to locality 9", func(p *flowercdn.Params) {
			p.Faults = &simnet.FaultConfig{AsymLoss: []simnet.AsymLossRule{{ToLoc: 9, Prob: 0.2}}}
		}, false},
		{"a flap of period 0", func(p *flowercdn.Params) {
			p.Faults = &simnet.FaultConfig{Flap: []simnet.FlapWindow{{End: simkernel.Minute, DownFor: simkernel.Second}}}
		}, false},
		{"a flap down for its whole period", func(p *flowercdn.Params) {
			p.Faults = &simnet.FaultConfig{Flap: []simnet.FlapWindow{{End: simkernel.Minute, Period: 10 * simkernel.Second, DownFor: 10 * simkernel.Second}}}
		}, false},
		{"a node degrade by factor 1", func(p *flowercdn.Params) {
			p.Faults = &simnet.FaultConfig{NodeDegrade: []simnet.DegradeWindow{{End: simkernel.Minute, Factor: 1}}}
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := fastParams(9)
			p.Duration = 2 * simkernel.Minute
			c.edit(&p)
			// Under a deadline, so a value that hangs or panics the run fails
			// its row rather than the whole test binary.
			done := make(chan error, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("panic: %v", r)
					}
				}()
				if err := p.Validate(); (err == nil) != c.ok {
					done <- fmt.Errorf("Validate() = %v, want ok=%v", err, c.ok)
					return
				}
				// flowercdn.RunFlower must agree with Validate: no panic, no silent success.
				if _, err := flowercdn.RunFlower(p); (err == nil) != c.ok {
					done <- fmt.Errorf("RunFlower() error = %v, want ok=%v", err, c.ok)
					return
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Validate and flowercdn.RunFlower did not return within 30 s")
			}
		})
	}
}

// TestSettableValues pins how many independently settable values the
// configuration surface has: every configuration struct a run reads, and the
// result a run returns. Every field is a value tests and benchmarks must
// cover: a new knob has to raise a number here on purpose (and a value that
// only ever holds one setting belongs in a constant, which lowers it). The
// log line gives the configuration structs' total.
func TestSettableValues(t *testing.T) {
	total := 0
	for _, c := range []struct {
		name   string
		config any
		fields int
	}{
		{"flowercdn.Params", flowercdn.Params{}, 32},
		{"core.Config", core.Config{}, 15},
		{"squirrel.Config", squirrel.Config{}, 5},
		{"overlay.Config", overlay.Config{}, 4},
		{"metrics.Config", metrics.Config{}, 2},
		{"topology.Config", topology.Config{}, 6},
		{"workload.Config", workload.Config{}, 7},
		{"simnet.FaultConfig", simnet.FaultConfig{}, 9},
		{"chord.Config", chord.Config{}, 2},
		{"flowercdn.Result", flowercdn.Result{}, 18},
	} {
		got := reflect.TypeOf(c.config).NumField()
		if got != c.fields {
			t.Errorf("%s has %d fields, pinned at %d", c.name, got, c.fields)
		}
		if c.name != "flowercdn.Result" {
			total += got
		}
	}
	t.Logf("%d settable values across the configuration structs", total)
}
