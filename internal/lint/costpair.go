package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CostPair pins Cost accounting to its single derivation site. A struct
// that carries a lowered cmdstream.Program next to a Cost field reports
// that Cost as a fold over the program: the program's instruction seconds
// summing exactly to Cost.Seconds is what makes Plan's replay honest. A
// write to such a Cost field must therefore be that program's Cost() fold:
//
//	res.Cost = res.Program.Cost()
//	T{Program: p, Cost: p.Cost()}
//
// Anything else is reported — assigning another value, writing a
// sub-field, incrementing, calling a pointer-receiver method such as
// Cost.Add, or taking the field's address — because it lets the reported
// cost drift from the program a scheduler replays.
var CostPair = &Analyzer{
	Name: "costpair",
	Doc: "a Cost field next to a cmdstream.Program may only be written with " +
		"that program's Cost() fold",
	Run: runCostPair,
}

func runCostPair(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel := pairedCostRoot(pass, lhs)
					if sel == nil {
						continue
					}
					if ast.Unparen(lhs) == sel && n.Tok == token.ASSIGN &&
						len(n.Rhs) == len(n.Lhs) && isFoldOf(pass, n.Rhs[i], sel.X) {
						continue
					}
					reportCostWrite(pass, lhs.Pos(), sel)
				}
			case *ast.IncDecStmt:
				if sel := pairedCostRoot(pass, n.X); sel != nil {
					reportCostWrite(pass, n.Pos(), sel)
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if sel := pairedCostRoot(pass, n.X); sel != nil {
						reportCostWrite(pass, n.Pos(), sel)
					}
				}
			case *ast.CallExpr:
				fun, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || !pointerMethod(pass, fun) {
					return true
				}
				if sel := pairedCostRoot(pass, fun.X); sel != nil {
					reportCostWrite(pass, n.Pos(), sel)
				}
			case *ast.CompositeLit:
				checkCostLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

func reportCostWrite(pass *Pass, pos token.Pos, sel *ast.SelectorExpr) {
	pass.Reportf(pos, "%s is written from outside its program's fold; assign %s.Cost() instead",
		types.ExprString(sel), types.ExprString(sel.X)+"."+programField(pass, sel.X))
}

// pairedCostRoot walks a selector chain (res.Cost, res.Cost.Seconds) down
// to a Cost field of a program-carrying struct and returns that selector.
func pairedCostRoot(pass *Pass, expr ast.Expr) *ast.SelectorExpr {
	for {
		sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if sel.Sel.Name == "Cost" && isField(pass, sel) && programField(pass, sel.X) != "" {
			return sel
		}
		expr = sel.X
	}
}

func isField(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// programField names the cmdstream.Program field of the struct expr
// evaluates to (through one pointer), or "" when it carries none.
func programField(pass *Pass, expr ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return ""
	}
	return programFieldOf(tv.Type)
}

func programFieldOf(t types.Type) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if isProgram(st.Field(i).Type()) {
			return st.Field(i).Name()
		}
	}
	return ""
}

func isProgram(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Name() == "Program" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Name() == "cmdstream"
}

// isFoldOf reports whether rhs is the call <prog>.Cost() on a
// cmdstream.Program, where <prog> is spelled as base itself or, when base
// is a program-carrying struct, as base's program field.
func isFoldOf(pass *Pass, rhs, base ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || fun.Sel.Name != "Cost" {
		return false
	}
	recv, ok := pass.TypesInfo.Types[fun.X]
	if !ok || !isProgram(recv.Type) {
		return false
	}
	want := types.ExprString(base)
	if field := programField(pass, base); field != "" {
		want += "." + field
	}
	return types.ExprString(fun.X) == want
}

// pointerMethod reports whether fun selects a method with a pointer
// receiver — one that may mutate its operand.
func pointerMethod(pass *Pass, fun *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[fun]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	sig, ok := s.Obj().Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, ptr := sig.Recv().Type().(*types.Pointer)
	return ptr
}

// checkCostLiteral applies the rule to a keyed literal of a
// program-carrying struct: its Cost must be the fold of the literal's own
// Program value.
func checkCostLiteral(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	field := programFieldOf(tv.Type)
	if field == "" {
		return
	}
	var cost *ast.KeyValueExpr
	var prog ast.Expr
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Cost":
			cost = kv
		case field:
			prog = kv.Value
		}
	}
	if cost == nil {
		return
	}
	if prog != nil && isFoldOf(pass, cost.Value, prog) {
		return
	}
	pass.Reportf(cost.Pos(), "Cost in a literal carrying a cmdstream.Program must be that program's Cost() fold")
}
