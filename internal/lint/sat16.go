package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Sat16 confines the 16-bit kernel's arithmetic: inside internal/sdtw's
// int16 kernel files (package sdtw, basename containing "16" — int16.go
// and sweep16.go alike), all cell math happens in int32 registers and
// only clamped values are narrowed into the packed int16 row. That
// discipline is what the Sat16Ceiling confinement proof (int16.go)
// quantifies over — a single raw int16 addition can wrap instead of
// saturate and silently void the "saturation never flips a verdict"
// property that lets thresholds stay in 16 bits.
//
// Flagged:
//
//   - arithmetic (binary ops, op-assignments, ++/--) on int16-typed
//     operands: compute in int32, clamp on store;
//   - narrowing conversions int16(x) from a wider integer unless the
//     operand is provably clamped: either a direct sat16(...) call, or an
//     identifier that was earlier assigned from sat16(...), or an
//     identifier guarded by the inline two-sided clamp pair
//     (`if v > sat16Max { v = sat16Max }` and `if v < sat16Min { ... }`)
//     the register-resident sweeps use.
//
// The clamp-evidence check is lexical within one function, matching how
// the kernel is written: every store's clamp sits a few lines above it.
var Sat16 = &Analyzer{
	Name: "sat16",
	Doc: "confine int16 arithmetic in the 16-bit sDTW kernel files: compute in int32, " +
		"narrow only through sat16 or the inline sat16Max/sat16Min clamp pair (Sat16Ceiling invariant)",
	Run: runSat16,
}

func runSat16(pass *Pass) {
	if pass.Pkg.Name() != "sdtw" {
		return
	}
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if isTestFile(pass.Fset, f) || !strings.Contains(name, "16") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok && fd.Body != nil {
				checkSat16Func(pass, fd.Body)
				return false
			}
			return true
		})
	}
}

// clampEvidence records, per identifier name, where a function has
// clamped it: assignment from sat16(...), or the upper/lower halves of
// the inline clamp pair.
type clampEvidence struct {
	sat   map[string][]token.Pos
	upper map[string][]token.Pos
	lower map[string][]token.Pos
}

func checkSat16Func(pass *Pass, body *ast.BlockStmt) {
	ev := clampEvidence{
		sat:   map[string][]token.Pos{},
		upper: map[string][]token.Pos{},
		lower: map[string][]token.Pos{},
	}

	// Evidence pass.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if call, ok := unparen(n.Rhs[i]).(*ast.CallExpr); ok && isSat16Call(pass, call) {
					ev.sat[id.Name] = append(ev.sat[id.Name], n.Pos())
				}
			}
		case *ast.IfStmt:
			// `if v > sat16Max { v = ... }` / `if v < sat16Min { v = ... }`
			cond, ok := n.Cond.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			id, ok := unparen(cond.X).(*ast.Ident)
			if !ok {
				return true
			}
			lim, ok := unparen(cond.Y).(*ast.Ident)
			if !ok || !assignsTo(n.Body, id.Name) {
				return true
			}
			switch {
			case cond.Op == token.GTR && lim.Name == "sat16Max":
				ev.upper[id.Name] = append(ev.upper[id.Name], n.Pos())
			case cond.Op == token.LSS && lim.Name == "sat16Min":
				ev.lower[id.Name] = append(ev.lower[id.Name], n.Pos())
			}
		}
		return true
	})

	clampedBefore := func(name string, pos token.Pos) bool {
		for _, p := range ev.sat[name] {
			if p < pos {
				return true
			}
		}
		up, lo := false, false
		for _, p := range ev.upper[name] {
			if p < pos {
				up = true
			}
		}
		for _, p := range ev.lower[name] {
			if p < pos {
				lo = true
			}
		}
		return up && lo
	}

	// Flag pass.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if isArithOp(n.Op) && (isInt16(pass, n.X) || isInt16(pass, n.Y)) {
				pass.Reportf(n.Pos(), "raw int16 arithmetic in the 16-bit kernel; widen to int32 and clamp on store (Sat16Ceiling confinement)")
			}
		case *ast.AssignStmt:
			if isArithAssign(n.Tok) && len(n.Lhs) == 1 && isInt16(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "raw int16 op-assignment in the 16-bit kernel; widen to int32 and clamp on store (Sat16Ceiling confinement)")
			}
		case *ast.IncDecStmt:
			if isInt16(pass, n.X) {
				pass.Reportf(n.Pos(), "raw int16 increment in the 16-bit kernel; widen to int32 and clamp on store (Sat16Ceiling confinement)")
			}
		case *ast.CallExpr:
			if !isConversionTo(pass, n, types.Int16) || len(n.Args) != 1 {
				return true
			}
			arg := unparen(n.Args[0])
			if isInt16(pass, arg) {
				return true // not a narrowing
			}
			if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
				return true // constant conversions are compiler-checked for overflow
			}
			if call, ok := arg.(*ast.CallExpr); ok && isSat16Call(pass, call) {
				return true
			}
			if id, ok := arg.(*ast.Ident); ok && clampedBefore(id.Name, n.Pos()) {
				return true
			}
			pass.Reportf(n.Pos(), "unclamped narrowing to int16; route the value through sat16 (or the inline sat16Max/sat16Min clamp pair) before storing")
		}
		return true
	})
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isSat16Call reports whether call invokes the package's sat16 clamp
// helper.
func isSat16Call(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "sat16"
}

// assignsTo reports whether the block assigns to an identifier named
// name (the body half of the inline clamp pattern).
func assignsTo(block *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isInt16 reports whether e's static type has underlying kind int16.
func isInt16(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int16
}

// isConversionTo reports whether call is a type conversion to basic kind
// k.
func isConversionTo(pass *Pass, call *ast.CallExpr, k types.BasicKind) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == k
}

func isArithOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.AND_NOT, token.SHL, token.SHR:
		return true
	}
	return false
}

func isArithAssign(op token.Token) bool {
	switch op {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
		return true
	}
	return false
}
