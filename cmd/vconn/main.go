// Command vconn runs the paper's vertex-connectivity sketches over a
// dynamic edge stream read from a file or stdin (format: one update per
// line, "+ u v" / "- u v"; '#' comments).
//
// Examples:
//
//	vconn -n 64 -k 3 -query 4,9,17 < stream.txt
//	    Answer whether removing vertices {4,9,17} disconnects the graph.
//	vconn -n 64 -k 3 -estimate < stream.txt
//	    Estimate the vertex connectivity (capped at k).
//
// -subgraphs 0 selects the paper's Theorem 4 constants; -checkpoint/-restore
// carry the sketch between runs as a framed, self-describing checkpoint.
package main

import (
	"fmt"
	"os"

	"graphsketch/internal/cli"
)

func main() {
	if err := cli.RunVconn(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "vconn: %v\n", err)
		os.Exit(1)
	}
}
