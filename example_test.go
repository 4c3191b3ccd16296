package flowercdn_test

import (
	"fmt"
	"io"
	"strings"

	"flowercdn"
)

func readerOf(s string) io.Reader { return strings.NewReader(s) }

// The Example functions double as documentation and as compile-checked,
// output-verified usage samples (run by `go test`). They assert stable,
// qualitative facts — exact figures come from `flowersim -exp … -scale paper`.

// ExampleRunFlower shows the one-call simulation entry point.
func ExampleRunFlower() {
	p := flowercdn.ScaledParams(1)
	p.Duration = 15 * flowercdn.Minute
	res, err := flowercdn.RunFlower(p)
	if err != nil {
		panic(err)
	}
	fmt.Println("system kind:", res.Kind)
	fmt.Println("queries processed:", res.Report.TotalQueries > 0)
	fmt.Println("hit ratio in (0,1]:", res.Report.HitRatio > 0 && res.Report.HitRatio <= 1)
	fmt.Println("gossip costs bandwidth:", res.Report.BackgroundBps > 0)
	// Output:
	// system kind: flower-cdn
	// queries processed: true
	// hit ratio in (0,1]: true
	// gossip costs bandwidth: true
}

// ExampleComparison reproduces the paper's headline shape: Flower-CDN wins
// lookup latency and transfer distance against Squirrel.
func ExampleComparison() {
	p := flowercdn.ScaledParams(2)
	p.Duration = 30 * flowercdn.Minute
	f, s, err := flowercdn.Comparison(p)
	if err != nil {
		panic(err)
	}
	h := flowercdn.ComputeHeadline(f, s)
	fmt.Println("flower faster lookups:", h.LookupFactor > 1)
	fmt.Println("flower closer transfers:", h.TransferFactor > 1)
	fmt.Println("squirrel hit ratio at least flower's:", h.SquirrelHit >= h.FlowerHit-0.05)
	// Output:
	// flower faster lookups: true
	// flower closer transfers: true
	// squirrel hit ratio at least flower's: true
}

// ExampleAblationConditionalRouting quantifies why D-ring modifies the
// standard DHT routing rule (Algorithm 2 vs Algorithm 1).
func ExampleAblationConditionalRouting() {
	res, err := flowercdn.AblationConditionalRouting(1, 30, 6, 0.2, 500)
	if err != nil {
		panic(err)
	}
	fmt.Println("conditional routing at least as good:", res.SameWebsiteAlg2 >= res.SameWebsiteAlg1)
	fmt.Println("conditional routing near-perfect:", res.SameWebsiteAlg2 > 0.99)
	// Output:
	// conditional routing at least as good: true
	// conditional routing near-perfect: true
}

// ExampleParseWorkloadTrace demonstrates the replayable trace format.
func ExampleParseWorkloadTrace() {
	const text = "1000,0,2,5,42\n"
	qs, err := flowercdn.ParseWorkloadTrace(
		readerOf(text), flowercdn.MakeSites(1))
	if err != nil {
		panic(err)
	}
	q := qs[0]
	fmt.Println(q.At, q.Site, q.Locality, q.Member, q.Object.Num)
	// Output:
	// 1s ws-000 2 5 42
}
