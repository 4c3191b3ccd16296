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

	"flowercdn"
)

func main() {
	p := flowercdn.ScaledParams(3)
	p.Duration = flowercdn.Hour

	fmt.Println("Gossip tuning trade-off (1 simulated hour per cell)")

	rowsA, err := flowercdn.Table2a(p, []int{2, 4, 8})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nL_gossip (entries exchanged per round) — bandwidth scales with it:")
	printRows(rowsA)

	rowsB, err := flowercdn.Table2b(p, []flowercdn.Time{
		1 * flowercdn.Minute, 5 * flowercdn.Minute, 15 * flowercdn.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nT_gossip (round period) — bandwidth scales inversely:")
	printRows(rowsB)

	rowsC, err := flowercdn.Table2c(p, []int{4, 12, 24})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nV_gossip (view size) — costs memory, not bandwidth; widens reach:")
	printRows(rowsC)

	fmt.Println("\nReading the table (paper §6.2): pick T_gossip and L_gossip for the")
	fmt.Println("bandwidth you can afford; raise V_gossip while memory allows — it is")
	fmt.Println("the only knob that improves hit ratio for free on the wire.")
}

func printRows(rows []flowercdn.Row) {
	fmt.Printf("  %-10s %-10s %-14s\n", "value", "hit ratio", "background")
	for _, r := range rows {
		fmt.Printf("  %-10s %-10.3f %8.1f bps\n", r.Label, r.Report.HitRatio, r.Report.BackgroundBps)
	}
}
