package sqlengine

import (
	"fmt"
	"math"

	"gsn/internal/stream"
)

// aggKind enumerates the supported aggregate functions. FIRST and LAST
// are stream-oriented extensions (value of the earliest/latest row in
// the group by arrival order) that GSN-style continuous queries use to
// pick representative readings.
type aggKind int

const (
	aggCount aggKind = iota
	aggSum
	aggAvg
	aggMin
	aggMax
	aggStddev
	aggFirst
	aggLast
)

var aggKinds = map[string]aggKind{
	"COUNT":  aggCount,
	"SUM":    aggSum,
	"AVG":    aggAvg,
	"MIN":    aggMin,
	"MAX":    aggMax,
	"STDDEV": aggStddev,
	"FIRST":  aggFirst,
	"LAST":   aggLast,
}

// IsAggregateFunc reports whether name (upper-case) is an aggregate.
func IsAggregateFunc(name string) bool {
	_, ok := aggKinds[name]
	return ok
}

// aggState accumulates one aggregate over a group's rows: a scan feeds
// it with add, a coordinator merges node snapshots into it with
// mergePartial (partial.go), and an AggMaintainer also takes rows back
// out, oldest first, with evict (incremental.go). Its zero value, given
// a kind, is the empty state.
type aggState struct {
	kind     aggKind
	distinct bool
	seen     map[string]bool // distinct keys, lazily allocated

	count  int64
	sum    float64
	sumSq  float64
	intSum int64
	floats int64 // float inputs summed (a merged part's count as one)
	min    stream.Value
	max    stream.Value
	first  stream.Value
	last   stream.Value
	any    bool

	// live is what evict needs of a maintained MIN, MAX or LAST: the
	// monotonic deque of MIN/MAX candidates or the FIFO of LAST's non-NULL
	// inputs, oldest first. min, max and last are its head or tail.
	live []seqValue
}

func newAggState(kind aggKind, distinct bool) *aggState {
	return &aggState{kind: kind, distinct: distinct}
}

// add feeds one input value (already evaluated). For COUNT(*) callers
// pass a non-nil sentinel.
func (a *aggState) add(v stream.Value) error {
	if v == nil {
		// SQL aggregates ignore NULL inputs (COUNT(*) never routes here
		// with nil).
		return nil
	}
	if a.distinct {
		key := encodeRowKey([]stream.Value{v})
		if a.seen == nil {
			a.seen = make(map[string]bool)
		}
		if a.seen[key] {
			return nil
		}
		a.seen[key] = true
	}
	if !a.any {
		a.first = v
		a.any = true
	}
	a.last = v
	a.count++
	switch a.kind {
	case aggCount, aggFirst, aggLast:
		return nil
	case aggMin:
		if a.min == nil {
			a.min = v
			return nil
		}
		c, ok, err := compare(v, a.min)
		if err != nil {
			return err
		}
		if ok && c < 0 {
			a.min = v
		}
		return nil
	case aggMax:
		if a.max == nil {
			a.max = v
			return nil
		}
		c, ok, err := compare(v, a.max)
		if err != nil {
			return err
		}
		if ok && c > 0 {
			a.max = v
		}
		return nil
	default: // SUM, AVG, STDDEV need numbers
		switch x := v.(type) {
		case int64:
			a.intSum += x
			a.sum += float64(x)
			a.sumSq += float64(x) * float64(x)
		case float64:
			a.floats++
			a.sum += x
			a.sumSq += x * x
		default:
			return fmt.Errorf("sqlengine: %v aggregate over non-numeric value %T", a.kind, v)
		}
		return nil
	}
}

// result finalises the aggregate. Empty groups yield COUNT=0 and NULL
// for the others, per SQL.
func (a *aggState) result() stream.Value {
	switch a.kind {
	case aggCount:
		return a.count
	case aggSum:
		if a.count == 0 {
			return nil
		}
		if a.floats == 0 {
			return a.intSum
		}
		return a.sum
	case aggAvg:
		if a.count == 0 {
			return nil
		}
		if a.floats == 0 {
			// Exact as long as the int64 sum is: the float running sum
			// of integers rounds once it passes 2^53.
			return float64(a.intSum) / float64(a.count)
		}
		return a.sum / float64(a.count)
	case aggMin:
		return a.min
	case aggMax:
		return a.max
	case aggStddev:
		if a.count == 0 {
			return nil
		}
		mean := a.sum / float64(a.count)
		variance := a.sumSq/float64(a.count) - mean*mean
		if variance < 0 {
			variance = 0 // numeric noise
		}
		return math.Sqrt(variance)
	case aggFirst:
		return a.first
	case aggLast:
		return a.last
	default:
		return nil
	}
}
