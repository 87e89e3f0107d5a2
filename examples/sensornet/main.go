// Sensornet: clusterhead election in a wireless sensor field using the
// beeping-model runtime — every sensor runs its own node program that can
// only beep or listen, exactly the communication the paper's 2-state process
// needs (sender collision detection included).
//
// Sensors are scattered on the unit square; two sensors hear each other
// within the radio radius. An MIS of the resulting disk graph is a classic
// clusterhead assignment: no two heads interfere, every sensor has a head in
// range.
//
// Run with: go run ./examples/sensornet
package main

import (
	"fmt"
	"log"

	"ssmis"
)

// lcg is a tiny deterministic generator for node placement (the protocol's
// randomness is separate, inside the ssmis runtime).
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

func main() {
	const (
		sensors = 600
		radius  = 0.07
	)
	// Scatter sensors and connect pairs within radio range.
	rng := lcg(2024)
	xs := make([]float64, sensors)
	ys := make([]float64, sensors)
	for i := range xs {
		xs[i], ys[i] = rng.next(), rng.next()
	}
	var edges [][2]int
	for i := 0; i < sensors; i++ {
		for j := i + 1; j < sensors; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= radius*radius {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g := ssmis.FromEdges(sensors, edges)
	fmt.Printf("sensor field: %d sensors, %d radio links, max degree %d\n",
		g.N(), g.M(), g.MaxDegree())

	// Give every sensor a node program under the beeping medium. nil
	// initial colors = arbitrary (random) boot state: sensors need no
	// coordinated initialization, no IDs, and no knowledge of the network.
	net := ssmis.NewBeepingMIS(g, 99, nil)
	rounds, ok := net.Run(100000)
	if !ok {
		log.Fatal("network did not stabilize")
	}

	heads := 0
	for u := 0; u < g.N(); u++ {
		if net.Black(u) {
			heads++
		}
	}
	if err := ssmis.VerifyMIS(g, collect(net.Black, g.N())); err != nil {
		log.Fatalf("clusterhead set invalid: %v", err)
	}
	fmt.Printf("stabilized after %d beeping rounds\n", rounds)
	fmt.Printf("%d clusterheads elected (%.1f%% of sensors); every sensor is a head or hears one\n",
		heads, 100*float64(heads)/float64(sensors))
	fmt.Printf("protocol cost: %d random bits total, 1 bit of state per sensor\n", net.RandomBits())
}

func collect(pred func(int) bool, n int) []int {
	var out []int
	for u := 0; u < n; u++ {
		if pred(u) {
			out = append(out, u)
		}
	}
	return out
}
