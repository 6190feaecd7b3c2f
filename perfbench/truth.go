package main

import (
	"errors"
	"math"

	"trapp/internal/aggregate"
	"trapp/internal/predicate"
	"trapp/internal/query"
	"trapp/internal/relation"
	"trapp/internal/server"
)

// spec is one generated query. The benchmark keeps the spec so it can
// compute the exact answer over the sources' master values itself.
type spec struct {
	table  string
	agg    aggregate.Func
	col    string
	within float64 // absolute constraint R; +Inf for none
	rel    float64 // relative constraint, 0 for none
	where  *cmp
	mode   query.Mode
	budget float64 // cost budget; < 0 for none
}

// cmp is a one-comparison WHERE clause: column op constant.
type cmp struct {
	col string
	op  predicate.Op
	val float64
}

func newSpec(table string, agg aggregate.Func, col string) spec {
	return spec{table: table, agg: agg, col: col, within: math.Inf(1), budget: -1}
}

func (s spec) query(schema *relation.Schema) query.Query {
	q := query.NewQuery(s.table, s.agg, s.col)
	q.Within = s.within
	q.RelativeWithin = s.rel
	if s.where != nil {
		q.Where = predicate.NewCmp(predicate.Column(schema.MustLookup(s.where.col), s.where.col),
			s.where.op, predicate.Const(s.where.val))
	}
	return q
}

func (s spec) opts() []query.ExecOption {
	var opts []query.ExecOption
	if s.mode != query.ModeBounded {
		opts = append(opts, query.WithMode(s.mode))
	}
	if s.budget >= 0 {
		opts = append(opts, query.WithCostBudget(s.budget))
	}
	return opts
}

// request renders the spec for the framed wire.
func (s spec) request(schema *relation.Schema) server.QueryRequest {
	req := server.QueryRequest{SQL: s.query(schema).String()}
	if s.mode != query.ModeBounded {
		req.Mode = s.mode.String()
	}
	if s.budget >= 0 {
		b := server.Float(s.budget)
		req.Budget = &b
	}
	return req
}

func (c *cmp) holds(v float64) bool {
	switch c.op {
	case predicate.Lt:
		return v < c.val
	case predicate.Le:
		return v <= c.val
	case predicate.Gt:
		return v > c.val
	case predicate.Ge:
		return v >= c.val
	case predicate.Eq:
		return v == c.val
	default:
		return v != c.val
	}
}

// truth computes the exact aggregate over master rows (full schema
// rows); ok is false when the aggregate is undefined (MIN, MAX or AVG
// of nothing).
func (s spec) truth(schema *relation.Schema, rows [][]float64) (v float64, ok bool) {
	col := schema.MustLookup(s.col)
	wcol := -1
	if s.where != nil {
		wcol = schema.MustLookup(s.where.col)
	}
	var sum float64
	n := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		if wcol >= 0 && !s.where.holds(r[wcol]) {
			continue
		}
		x := r[col]
		sum += x
		n++
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	switch s.agg {
	case aggregate.Sum:
		return sum, true
	case aggregate.Count:
		return float64(n), true
	case aggregate.Avg:
		return sum / float64(n), n > 0
	case aggregate.Min:
		return lo, n > 0
	default:
		return hi, n > 0
	}
}

// tol is the float slack allowed between the engine's arithmetic and
// the benchmark's.
func tol(x float64) float64 { return 1e-9 * math.Max(1, math.Abs(x)) }

// contract checks the parts of the paper's contract that need no
// master values: the call succeeded (a typed unmet or exhausted outcome
// still carries a sound answer), Met implies width ≤ R, and spend ≤
// budget. It counts one attempted operation and reports whether the
// result passed.
func (h *harness) contract(s spec, res query.Result, err error) bool {
	h.attempted.Add(1)
	if err != nil && !errors.Is(err, query.ErrPrecisionUnmet{}) && !errors.Is(err, query.ErrBudgetExhausted{}) {
		h.violate("%s: %v", s.table, err)
		return false
	}
	a := res.Answer
	if res.Met && !a.IsEmpty() && s.rel == 0 && s.mode == query.ModeBounded && a.Width() > s.within+tol(s.within) {
		h.violate("Met with width %g > R %g: %v", a.Width(), s.within, a)
		return false
	}
	if s.budget >= 0 && res.RefreshCost > s.budget+tol(s.budget) {
		h.violate("spent %g over budget %g", res.RefreshCost, s.budget)
		return false
	}
	return true
}

// check runs the contract and, with the exact answer, containment and
// the relative constraint.
func (h *harness) check(s spec, res query.Result, err error, truth float64, defined bool) {
	if !h.contract(s, res, err) {
		return
	}
	a := res.Answer
	if !defined {
		return
	}
	if a.IsEmpty() || truth < a.Lo-tol(truth) || truth > a.Hi+tol(truth) {
		h.violate("answer %v does not contain the exact %s %g", a, s.agg, truth)
		return
	}
	if s.rel > 0 && res.Met && a.Width() > 2*math.Abs(truth)*s.rel+tol(truth) {
		h.violate("Met with width %g > relative bound %g", a.Width(), 2*math.Abs(truth)*s.rel)
	}
}
