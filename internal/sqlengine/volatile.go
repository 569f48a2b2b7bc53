package sqlengine

import (
	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Volatile reports whether a statement's result can change without any
// referenced table changing — today that means it calls NOW() anywhere
// (including subqueries and derived tables). Result caches must not
// serve such statements from unchanged-table entries: a temporal
// predicate like "timed >= now() - 5000" drifts as the clock advances
// even while the windows stand still.
func Volatile(stmt *sqlparser.SelectStatement) bool {
	for s := stmt; s != nil; {
		if volatileCore(s) {
			return true
		}
		if s.Compound == nil {
			return false
		}
		s = s.Compound.Right
	}
	return false
}

func volatileCore(s *sqlparser.SelectStatement) bool {
	for _, c := range s.Columns {
		if !c.Star && volatileExpr(c.Expr) {
			return true
		}
	}
	for _, f := range s.From {
		if volatileTableRef(f) {
			return true
		}
	}
	if volatileExpr(s.Where) || volatileExpr(s.Having) ||
		volatileExpr(s.Limit) || volatileExpr(s.Offset) {
		return true
	}
	for _, g := range s.GroupBy {
		if volatileExpr(g) {
			return true
		}
	}
	for _, o := range s.OrderBy {
		if volatileExpr(o.Expr) {
			return true
		}
	}
	return false
}

func volatileTableRef(ref sqlparser.TableRef) bool {
	switch t := ref.(type) {
	case *sqlparser.SubqueryRef:
		return Volatile(t.Select)
	case *sqlparser.JoinRef:
		return volatileTableRef(t.Left) || volatileTableRef(t.Right) || volatileExpr(t.On)
	}
	return false
}

func volatileExpr(e sqlparser.Expr) bool {
	return anyExpr(e, func(e sqlparser.Expr) bool {
		switch x := e.(type) {
		case *sqlparser.FuncCall:
			return stream.CanonicalName(x.Name) == "NOW"
		case *sqlparser.Subquery:
			return Volatile(x.Select)
		case *sqlparser.ExistsExpr:
			return Volatile(x.Select)
		case *sqlparser.InExpr:
			return x.Select != nil && Volatile(x.Select)
		}
		return false
	})
}
