// Hypercut: sparsifying a hypergraph workload for load balancing.
//
// In hypergraph-partitioning models of parallel sparse matrix–vector
// multiplication (Çatalyürek–Aykanat — one of the applications the paper
// cites), each row of the matrix is a hyperedge over the columns it
// touches, and the communication volume of a partition is a hypergraph
// cut. The matrix structure changes as the simulation evolves — a dynamic
// hyperedge stream.
//
// This example streams such a workload (with updates and retractions)
// through the Theorem 19/20 sparsifier sketch, then compares partition
// costs evaluated on the sparsifier against the true hypergraph: the
// sparsifier preserves every cut to within the target factor while storing
// a fraction of the hyperedges.
//
//	go run ./examples/hypercut
package main

import (
	"fmt"
	"log"
	"math"

	"graphsketch/internal/core/sparsify"
	"graphsketch/internal/hashutil"
	"graphsketch/internal/oracle"
	"graphsketch/internal/stream"
	"graphsketch/internal/workload"
)

func main() {
	const (
		n = 20 // columns (vertices)
		r = 3  // nonzeros per row (hyperedge cardinality)
	)
	rng := hashutil.NewRand(7, 42)

	// The "final" sparsity structure: two dense blocks (natural partition)
	// plus a few coupling rows; plus heavy churn from structure updates.
	final := workload.PlantedCutHypergraph(rng, n, r, 60, 4)
	churn := workload.UniformHypergraph(rng, n, r, 80)
	st := stream.WithChurn(final, churn, rng)
	fmt.Printf("matrix stream: %d row updates, %d live rows at the end\n",
		len(st), final.EdgeCount())

	sk, err := sparsify.New(sparsify.Params{N: n, R: r, K: 8, Seed: 99})
	if err != nil {
		log.Fatal(err)
	}
	if err := stream.Apply(st, sk); err != nil {
		log.Fatal(err)
	}
	sp, err := sk.Sparsifier()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparsifier: %d weighted rows kept out of %d (%.0f%%)\n",
		sp.EdgeCount(), final.EdgeCount(),
		100*float64(sp.EdgeCount())/float64(final.EdgeCount()))

	// Evaluate candidate partitions on both: the planted block partition
	// and a few random ones.
	parts := []struct {
		name string
		inS  func(v int) bool
	}{
		{"planted blocks", func(v int) bool { return v < n/2 }},
		{"odd/even", func(v int) bool { return v%2 == 0 }},
	}
	for i := 0; i < 3; i++ {
		mask := rng.Uint64()
		parts = append(parts, struct {
			name string
			inS  func(v int) bool
		}{fmt.Sprintf("random #%d", i+1), func(v int) bool { return mask&(1<<uint(v)) != 0 }})
	}

	fmt.Println("\npartition            true cut   sparsifier cut   rel.err")
	for _, p := range parts {
		trueCut := final.CutWeight(p.inS)
		spCut := sp.CutWeight(p.inS)
		relErr := 0.0
		if trueCut > 0 {
			relErr = math.Abs(float64(spCut)-float64(trueCut)) / float64(trueCut)
		}
		fmt.Printf("%-20s %8d   %14d   %7.3f\n", p.name, trueCut, spCut, relErr)
	}
	fmt.Println("\nthe planted block partition has the smallest cut on both — the\nsparsifier can stand in for the full structure during partitioning.")

	// Connectivity questions ("do columns u and v ever appear in a row
	// chain together?") go through the oracle: the sparsifier preserves
	// every cut within the target factor, so a zero cut — disconnection —
	// is preserved exactly, and the oracle's cached decode answers each
	// pair without re-running the sparsifier pipeline.
	orc, err := oracle.For(sk)
	if err != nil {
		log.Fatal(err)
	}
	ok, err := orc.Connected(0, n-1)
	if err != nil {
		log.Fatal(err)
	}
	cs := orc.CacheStats()
	fmt.Printf("\ncolumns 0 and %d share a row chain: %v (answered from cache: %d rebuild)\n",
		n-1, ok, cs.Rebuilds)
}
