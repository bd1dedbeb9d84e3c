package analysis

import (
	"go/ast"
)

// requestServing lists the packages linked into the live NDP request
// path: a panic in any of them tears down a server goroutine mid-
// request (the rpc server runs each request in its own goroutine, so a
// panic kills the whole process, not just the request). These packages
// return errors instead; genuinely unreachable invariant panics carry a
// "vizlint:ignore nopanic <reason>" annotation.
var requestServing = map[string]bool{
	"vizndp/internal/core":       true,
	"vizndp/internal/rpc":        true,
	"vizndp/internal/objstore":   true,
	"vizndp/internal/arraycache": true,
	"vizndp/internal/lru":        true,
	"vizndp/internal/telemetry":  true,
	"vizndp/internal/vtkio":      true,
	"vizndp/internal/compress":   true,
	"vizndp/internal/contour":    true,
	"vizndp/internal/grid":       true,
	"vizndp/internal/bitset":     true,
	"vizndp/internal/msgpack":    true,
	"vizndp/internal/s3fs":       true,
	"vizndp/internal/lz4":        true,
}

// NoPanic forbids panic calls in request-serving packages.
var NoPanic = &Analyzer{
	Name: "nopanic",
	Doc:  "request-serving packages must return errors, not panic",
	Run:  runNoPanic,
}

func runNoPanic(pass *Pass) {
	if !requestServing[pass.Path] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			// Confirm it is the builtin, not a local function named
			// panic, when type information is available.
			if pass.Info != nil {
				if obj := pass.Info.ObjectOf(id); obj != nil && obj.Pkg() != nil {
					return true
				}
			}
			pass.Reportf(call.Pos(),
				"panic in request-serving package %s: return an error instead", pass.Path)
			return true
		})
	}
}
