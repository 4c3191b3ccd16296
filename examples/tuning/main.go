// Tuning: the §6.2 trade-off explorer. Gossip costs bandwidth; bandwidth
// buys hit ratio. The paper tunes three knobs — gossip length L_gossip,
// gossip period T_gossip, view size V_gossip (Table 2) — and picks
// (L=10, T=30min, V=50) as "good performance with acceptable overhead".
// This example reproduces the sweep shape at laptop scale so you can pick
// an operating point for your own deployment.
//
// Run with:
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"
	"strconv"

	"flowercdn"
)

func main() {
	p := flowercdn.ScaledParams(3)
	p.Duration = flowercdn.Hour

	fmt.Println("Gossip tuning trade-off (1 simulated hour per cell)")

	// One point per cell, each varying one knob of p.
	var points []flowercdn.Point
	add := func(label string, set func(*flowercdn.Params)) {
		pv := p
		set(&pv)
		points = append(points, flowercdn.Point{Label: label, Params: pv})
	}
	for _, l := range []int{2, 4, 8} {
		add(strconv.Itoa(l), func(q *flowercdn.Params) { q.GossipLen = l })
	}
	for _, t := range []flowercdn.Time{flowercdn.Minute, 5 * flowercdn.Minute, 15 * flowercdn.Minute} {
		add(t.String(), func(q *flowercdn.Params) { q.TGossip, q.TKeepalive = t, t })
	}
	for _, v := range []int{4, 12, 24} {
		add(strconv.Itoa(v), func(q *flowercdn.Params) { q.ViewSize = v })
	}
	// The cells are independent simulations: one campaign runs them on
	// every CPU, with the results of a sequential run.
	results, err := flowercdn.RunCampaign(points, -1)
	if err != nil {
		log.Fatal(err)
	}
	for i, title := range []string{
		"L_gossip (entries exchanged per round) — bandwidth scales with it:",
		"T_gossip (round period) — bandwidth scales inversely:",
		"V_gossip (view size) — costs memory, not bandwidth; widens reach:",
	} {
		fmt.Println("\n" + title)
		fmt.Printf("  %-10s %-10s %-14s\n", "value", "hit ratio", "background")
		for j := 3 * i; j < 3*i+3; j++ {
			r := results[j].Report
			fmt.Printf("  %-10s %-10.3f %8.1f bps\n", points[j].Label, r.HitRatio, r.BackgroundBps)
		}
	}

	fmt.Println("\nReading the table (paper §6.2): pick T_gossip and L_gossip for the")
	fmt.Println("bandwidth you can afford; raise V_gossip while memory allows — it is")
	fmt.Println("the only knob that improves hit ratio for free on the wire.")
}
