// Package mapdeterminism flags `range` over a map inside an encode path.
//
// The wire codec's contract (internal/codec) is byte determinism: a frame
// carries an FNV-1a fingerprint and a CRC-32C over bytes that must come out
// identical on every encode of the same state, and the commsim referee and
// checkpoint conformance tests compare encodings byte-for-byte. Go
// randomizes map iteration order per run, so a map range anywhere on a
// WriteTo/State/encode path silently breaks that contract — the class of
// bug this analyzer removes before it reaches the fuzzer.
//
// Scope: functions named exactly WriteTo, MarshalBinary, AppendBinary, or
// GobEncode anywhere; the sketches' raw state encoders, which checkpoint
// and share frames wrap byte for byte (State, state, VertexShare);
// functions whose name starts with Write/Encode/
// Marshal/Append (either case) anywhere; and every function in a package
// whose import path ends in /codec (the codec package is the encode path).
// Iterate a sorted copy instead, or suppress with a documented
// //lint:ignore mapdeterminism annotation when the order provably cannot
// reach the output (e.g. feeding encoding/json, which sorts keys).
package mapdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"graphsketch/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mapdeterminism",
	Doc:  "flags range-over-map in WriteTo/State/encode paths, which breaks byte-deterministic wire encoding",
	Run:  run,
}

// exactNames are encode entry points from the standard interfaces, plus
// the raw state encoders whose bytes become frame interiors.
var exactNames = map[string]bool{
	"WriteTo":       true,
	"MarshalBinary": true,
	"AppendBinary":  true,
	"GobEncode":     true,
	"State":         true,
	"state":         true,
	"VertexShare":   true,
}

// namePrefixes mark helper functions on the encode path by convention.
var namePrefixes = []string{
	"Write", "write", "Encode", "encode", "Marshal", "marshal", "Append", "append",
}

func inScope(name string, codecPkg bool) bool {
	if codecPkg || exactNames[name] {
		return true
	}
	for _, p := range namePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	codecPkg := strings.HasSuffix(pass.Pkg.Path(), "/codec") || pass.Pkg.Path() == "codec"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !inScope(fd.Name.Name, codecPkg) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(rs.Pos(),
						"range over map %s in encode path %s: map iteration order is nondeterministic and breaks the byte-deterministic wire contract (sort keys first)",
						types.ExprString(rs.X), fd.Name.Name)
				}
				return true
			})
		}
	}
	return nil
}
