package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"

	"gsn/internal/stream"
)

// This file is the distributed-aggregation surface of the engine: a
// grouped statement whose aggregate states are mergeable can run as
// per-node partial rollups (WHERE + GROUP BY fold, node-side) that a
// coordinator merges and finalises (HAVING, projection, ORDER BY,
// LIMIT — merge-side). Both halves are the bound run every other
// execution of a Plan uses (compiled.go): a node feeds it and snapshots
// its groups, the coordinator merges snapshots into a run's groups and
// finishes it. A federated execution is therefore byte-identical to
// Plan.Execute over the union of the nodes' rows folded in part order.
//
// Caveat the property tests respect: float SUM/AVG/STDDEV merge as
// (Σ part₀) + (Σ part₁), which equals the union's left-fold only when
// the additions are exact (integers, dyadic fractions); for general
// floats the distributed result is the usual floating-point
// re-association, not a bit-for-bit replay.

// AggPartial is one aggregate accumulator's mergeable snapshot — the
// wire form of aggState. Count/IntSum/Sum/SumSq merge additively,
// Min/Max by comparison, First/Last by part order, IntOnly by AND.
// DISTINCT aggregates have no mergeable form (their dedup sets live
// node-side); Distributable excludes them.
type AggPartial struct {
	Count   int64
	IntSum  int64
	Sum     float64
	SumSq   float64
	IntOnly bool
	Min     stream.Value
	Max     stream.Value
	First   stream.Value
	Last    stream.Value
	Any     bool
}

// GroupPartial is one group's contribution from one node: the encoded
// group key (raw bytes — the key encoding is binary, not UTF-8), the
// representative row (first row of the group on that node; HAVING and
// the projection may read non-key columns from it), and one AggPartial
// per aggregate call in statement order.
type GroupPartial struct {
	Key  []byte
	Rep  []stream.Value
	Aggs []AggPartial
}

// PartialRollup is one node's full partial result: the base-table
// column names it was folded over (a representative row is read by
// position, so a coordinator must refuse a part folded over another
// column order), groups in first-seen order, and the number of input
// rows that survived WHERE (the raw-stream volume a coordinator avoided
// shipping).
type PartialRollup struct {
	Cols   []string
	Groups []GroupPartial
	Rows   int
}

// partial snapshots the accumulator for shipping.
func (a *aggState) partial() AggPartial {
	return AggPartial{
		Count:   a.count,
		IntSum:  a.intSum,
		Sum:     a.sum,
		SumSq:   a.sumSq,
		IntOnly: a.floats == 0,
		Min:     a.min,
		Max:     a.max,
		First:   a.first,
		Last:    a.last,
		Any:     a.any,
	}
}

// AppendPartial appends p's peer-answer encoding (the partial grammar
// in stream/codec.go).
func AppendPartial(buf []byte, p *PartialRollup) []byte {
	buf = appendNames(buf, p.Cols)
	buf = binary.AppendVarint(buf, int64(p.Rows))
	buf = binary.AppendUvarint(buf, uint64(len(p.Groups)))
	for _, g := range p.Groups {
		buf = appendValues(stream.AppendBlob(buf, g.Key), g.Rep)
		buf = binary.AppendUvarint(buf, uint64(len(g.Aggs)))
		for _, a := range g.Aggs {
			buf = binary.AppendVarint(buf, a.Count)
			buf = binary.AppendVarint(buf, a.IntSum)
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.Sum))
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(a.SumSq))
			var flags byte
			if a.IntOnly {
				flags |= aggIntOnly
			}
			if a.Any {
				flags |= aggAny
			}
			buf = append(buf, flags)
			for _, v := range [...]stream.Value{a.Min, a.Max, a.First, a.Last} {
				buf = stream.AppendValue(buf, v)
			}
		}
	}
	return buf
}

// The flags byte of an encoded AggPartial.
const (
	aggIntOnly byte = 1 << iota
	aggAny
)

// aggMinLen is the shortest encoded AggPartial: one-byte varints, two
// floats, the flags and four null values.
const aggMinLen = 1 + 1 + 8 + 8 + 1 + 4

// ReadPartial decodes one rollup written by AppendPartial; r reports
// any failure.
func ReadPartial(r *stream.Reader) *PartialRollup {
	p := &PartialRollup{Cols: readNames(r), Rows: int(r.Varint())}
	p.Groups = make([]GroupPartial, r.Count(3))
	for i := range p.Groups {
		g := &p.Groups[i]
		g.Key = append([]byte{}, r.Blob()...)
		g.Rep = readValues(r)
		g.Aggs = make([]AggPartial, r.Count(aggMinLen))
		for j := range g.Aggs {
			a := &g.Aggs[j]
			a.Count, a.IntSum, a.Sum, a.SumSq = r.Varint(), r.Varint(), r.Float64(), r.Float64()
			flags := r.Byte()
			if flags&^(aggIntOnly|aggAny) != 0 {
				r.Fail(fmt.Errorf("sqlengine: bad aggregate flags %#x", flags))
			}
			a.IntOnly, a.Any = flags&aggIntOnly != 0, flags&aggAny != 0
			a.Min, a.Max, a.First, a.Last = r.Value(), r.Value(), r.Value(), r.Value()
		}
	}
	return p
}

// mergePartial folds one shipped snapshot into the accumulator. Merge
// order is the coordinator's part order, which defines FIRST/LAST
// semantics exactly as a union concatenated in that order would.
func (a *aggState) mergePartial(p AggPartial) error {
	if a.distinct {
		return fmt.Errorf("sqlengine: DISTINCT aggregate state is not mergeable")
	}
	if p.Any {
		if !a.any {
			a.first = p.First
			a.any = true
		}
		a.last = p.Last
	}
	a.count += p.Count
	a.intSum += p.IntSum
	a.sum += p.Sum
	a.sumSq += p.SumSq
	if !p.IntOnly {
		a.floats++
	}
	if p.Min != nil {
		if a.min == nil {
			a.min = p.Min
		} else {
			c, ok, err := compare(p.Min, a.min)
			if err != nil {
				return err
			}
			if ok && c < 0 {
				a.min = p.Min
			}
		}
	}
	if p.Max != nil {
		if a.max == nil {
			a.max = p.Max
		} else {
			c, ok, err := compare(p.Max, a.max)
			if err != nil {
				return err
			}
			if ok && c > 0 {
				a.max = p.Max
			}
		}
	}
	return nil
}

// Distributable reports whether the plan can run as partial rollups
// merged on a coordinator: a grouped statement with no DISTINCT
// aggregate (every other aggregate state is mergeable) and no NOW()
// (node clocks diverge). Ungrouped statements ship rows, not states —
// routing or union handles those.
func (p *Plan) Distributable() bool {
	if !p.sp.grouped {
		return false
	}
	for _, a := range p.prog.aggs {
		if a.distinct {
			return false
		}
	}
	return !Volatile(p.sp.stmt)
}

// startPartial starts one half of a distributed execution.
func (p *Plan) startPartial(opts Options) (*boundRun, error) {
	if !p.sp.grouped {
		return nil, fmt.Errorf("sqlengine: an ungrouped statement has no partial rollup")
	}
	return p.prog.start(p, newEvaluator(nil, opts)), nil
}

// ExecutePartial runs the node-side half of a distributed execution
// over the local window rows: WHERE filter, GROUP BY fold, snapshot.
// It never synthesises the aggregate-only empty row — only the
// coordinator knows whether every partition was empty.
func (p *Plan) ExecutePartial(rows [][]stream.Value, opts Options) (*PartialRollup, error) {
	r, err := p.startPartial(opts)
	if err != nil {
		return nil, err
	}
	if err := r.feed(rows); err != nil {
		return nil, err
	}
	out := &PartialRollup{Rows: r.kept, Cols: make([]string, len(p.inCols))}
	for i, c := range p.inCols {
		out.Cols[i] = c.Name
	}
	for _, g := range r.order {
		gp := GroupPartial{
			Key:  []byte(g.key),
			Rep:  g.rep,
			Aggs: make([]AggPartial, len(g.states)),
		}
		for i := range g.states {
			gp.Aggs[i] = g.states[i].partial()
		}
		out.Groups = append(out.Groups, gp)
	}
	return out, nil
}

// MergePartials runs the coordinator half: merge the parts' group
// states in part order (group output order is first-seen across parts,
// matching a union concatenated in the same order), then finish the run
// as every execution does — the aggregate-only empty row if every part
// was empty, HAVING, projection, DISTINCT, ORDER BY, LIMIT/OFFSET. nil
// parts are skipped (an owner that contributed nothing).
func (p *Plan) MergePartials(parts []*PartialRollup, opts Options) (*Relation, error) {
	r, err := p.startPartial(opts)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		if part == nil {
			continue
		}
		for _, gp := range part.Groups {
			if len(gp.Aggs) != len(p.prog.aggs) || len(gp.Rep) != len(p.inCols) {
				return nil, fmt.Errorf("sqlengine: partial rollup carries %d aggregate states over %d columns, plan has %d over %d",
					len(gp.Aggs), len(gp.Rep), len(p.prog.aggs), len(p.inCols))
			}
			g := r.single // feedGrouped's lookup
			if len(p.prog.groupBy) > 0 {
				g = r.groups[string(gp.Key)]
			}
			if g == nil {
				g = r.newGroup(gp.Key, gp.Rep)
			}
			for i := range gp.Aggs {
				if err := g.states[i].mergePartial(gp.Aggs[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return r.finish()
}
