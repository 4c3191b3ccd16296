// Churn: §5 of the paper in action. Volunteer peers fail without warning —
// including directory peers — and the system recovers: stale directory
// entries are evicted by age, redirection failures fall back to other
// holders (§5.1), and content peers detect a dead directory through their
// keepalives and replace it by joining D-ring under the common key (§5.2).
//
// Run with:
//
//	go run ./examples/churn
package main

import (
	"fmt"
	"log"

	"flowercdn"
)

func main() {
	p := flowercdn.ScaledParams(11)
	p.Duration = 2 * flowercdn.Hour
	p.TGossip = 4 * flowercdn.Minute
	p.TKeepalive = 4 * flowercdn.Minute

	rates := []float64{0, 60, 240} // expected peer failures per hour
	fmt.Println("Flower-CDN under churn —", p.Duration, "simulated per run")
	fmt.Println("(failures hit joined content peers and, occasionally, directory peers)")
	fmt.Println()
	fmt.Printf("%-12s %-10s %-10s %-14s %-14s %-12s\n",
		"churn/hour", "hit", "lookup", "redirect-fail", "replacements", "retries")

	points := make([]flowercdn.Point, len(rates))
	for i, rate := range rates {
		pr := p
		pr.ChurnPerHour, pr.ChurnIncludesDirs = rate, true
		points[i] = flowercdn.Point{Label: fmt.Sprintf("%g/h", rate), Params: pr}
	}
	results, err := flowercdn.RunCampaign(points, -1) // independent runs, one per CPU
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("%-12s %-10.3f %-7.0fms %-14d %-14d %-12d\n",
			points[i].Label, r.Report.HitRatio, r.Report.AvgLookupMs,
			r.Report.RedirectFailures, r.Stats.DirReplacements, r.Stats.QueriesRetried)
	}

	fmt.Println()
	fmt.Println("What to look for:")
	fmt.Println(" - hit ratio degrades gracefully: lost replicas miss to the server, the")
	fmt.Println("   system keeps answering (liveness, §1);")
	fmt.Println(" - redirect-fail counts the §5.1 path: a directory redirected a query to")
	fmt.Println("   a dead holder, noticed, dropped the entry and tried elsewhere;")
	fmt.Println(" - replacements counts §5.2 directory takeovers: a content peer joined")
	fmt.Println("   D-ring under the dead directory's key and rebuilt the index from")
	fmt.Println("   pushes while answering first queries from its own gossip view.")
}
