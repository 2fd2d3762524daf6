package lint

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// CtxPass enforces the PR-6 cancellation contract in the shard plane
// (internal/shard, internal/serve): an exported function (or method on
// an exported type) that launches goroutines or loops over sample
// batches must accept a context.Context and actually use it — check it,
// or pass it on — so a cancelled coordinated pass releases worker CPU
// promptly instead of orphaning minutes of solver work.
//
// A *http.Request parameter whose .Context() is consulted satisfies the
// contract (handlers get their context from the request). Unexported
// helpers and methods on unexported adapter types are out of scope: the
// contract binds the public dispatch surface.
var CtxPass = &analysis.Analyzer{
	Name: "ctxpass",
	Doc:  "exported shard/serve functions that launch goroutines or loop sample batches must accept and use a context.Context",
	Run:  runCtxPass,
}

// batchLoopCallees are the sample-batch iteration entry points: calling
// one means the function walks a chip range and must be cancellable.
var batchLoopCallees = map[string]bool{
	"ForEachRangeBatch": true,
	"TallyRange":        true,
	"EvaluateSweep":     true,
	"EvaluateMany":      true,
}

func runCtxPass(pass *analysis.Pass) error {
	if !pathMatchesAny(pass.Path, ctxPkgs) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || inTestFile(pass.Fset, fd.Pos()) {
				continue
			}
			if !exportedFuncTarget(pass.TypesInfo, fd) {
				continue
			}
			checkCtxPass(pass, fd)
		}
	}
	return nil
}

func checkCtxPass(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	reason := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			reason = "launches goroutines"
			return false
		case *ast.CallExpr:
			if f := calleeFunc(info, n); f != nil && batchLoopCallees[f.Name()] {
				reason = "loops over sample batches (" + f.Name() + ")"
				return false
			}
		}
		return true
	})
	if reason == "" {
		return
	}

	// Collect context.Context parameters and *http.Request parameters.
	ctxParams := map[*ast.Ident]bool{}
	reqParams := map[*ast.Ident]bool{}
	for _, f := range fd.Type.Params.List {
		t := info.TypeOf(f.Type)
		for _, name := range f.Names {
			if isContextType(t) {
				ctxParams[name] = true
			}
			if isHTTPRequestPtr(t) {
				reqParams[name] = true
			}
		}
	}
	if len(ctxParams) == 0 && len(reqParams) == 0 {
		pass.Reportf(fd.Name.Pos(),
			"exported function %s %s but accepts no context.Context (PR-6 cancellation contract)",
			fd.Name.Name, reason)
		return
	}

	// The parameter must be consulted or propagated in the body.
	used := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for p := range ctxParams {
			if info.Defs[p] == obj {
				used = true
				return false
			}
		}
		for p := range reqParams {
			if info.Defs[p] == obj {
				// A request parameter satisfies the contract only when
				// the body actually consults it (r.Context(), or passes
				// r on); any use of r counts — its context travels with
				// it.
				used = true
				return false
			}
		}
		return true
	})
	if !used {
		pass.Reportf(fd.Name.Pos(),
			"exported function %s %s but never checks or propagates its context.Context",
			fd.Name.Name, reason)
	}
}
