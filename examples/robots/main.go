// Robots: mobile-robot rendezvous in 3-D — the paper's own motivating
// workload for a-priori input bounds ("if the input vectors represent
// locations in 3-dimensional space occupied by mobile robots, then U and ν
// are determined by the boundary of the region in which the robots are
// allowed to operate").
//
// Six robots run the asynchronous approximate BVC algorithm live — one
// single-instance service process per robot over a loopback TCP mesh,
// real OS scheduling supplying the asynchrony — and converge on a
// rendezvous point inside the convex hull of their positions, within ε
// per axis.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

func main() {
	const (
		robots = 6   // (d+2)f+1 = 6 with d = 3, f = 1... with one spare
		arena  = 100 // arena is [0, 100]³ meters
		eps    = 0.5 // rendezvous tolerance per axis, meters
	)
	cfg := bvc.Config{
		N: robots, F: 1, D: 3,
		Epsilon: eps,
		Lo:      []float64{0},
		Hi:      []float64{arena},
	}

	rng := rand.New(rand.NewSource(7))
	positions := make([]bvc.Vector, robots)
	for i := range positions {
		positions[i] = bvc.Vector{
			rng.Float64() * arena,
			rng.Float64() * arena,
			rng.Float64() * arena,
		}
	}

	fmt.Println("robot rendezvous: asynchronous approximate BVC, live loopback cluster")
	for i, p := range positions {
		fmt.Printf("  robot %d at (%.1f, %.1f, %.1f)\n", i+1, p[0], p[1], p[2])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	decisions, err := bvc.RunAsyncCluster(ctx, cfg, positions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %v (%d rounds analytically)\n",
		time.Since(start).Round(time.Millisecond),
		bvc.RoundBound(bvc.Gamma(bvc.ApproxAsync, robots, 1, false), arena, eps))

	for i, dec := range decisions {
		fmt.Printf("  robot %d heads to (%.3f, %.3f, %.3f)\n", i+1, dec[0], dec[1], dec[2])
	}

	// All rendezvous points agree within ε per axis and stay inside the
	// hull of the starting positions (no robot is sent outside the swarm).
	for i := 1; i < robots; i++ {
		for axis := 0; axis < 3; axis++ {
			if diff := decisions[i][axis] - decisions[0][axis]; diff > eps || diff < -eps {
				log.Fatalf("robots %d and 1 disagree by %.3f on axis %d", i+1, diff, axis)
			}
		}
	}
	in, err := bvc.InConvexHull(positions, decisions[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendezvous inside the swarm's hull: %v\n", in)
}
