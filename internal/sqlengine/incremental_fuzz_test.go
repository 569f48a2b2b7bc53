package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"

	"gsn/internal/stream"
)

var fuzzSchema = stream.MustSchema(
	stream.Field{Name: "i", Type: stream.TypeInt},
	stream.Field{Name: "f", Type: stream.TypeFloat},
	stream.Field{Name: "s", Type: stream.TypeString},
)

// fuzzSelects are the maintained statements FuzzMaintainedMatchesScan
// puts a drawn WHERE into: ungrouped, grouped on the string and on the
// int column, with HAVING and ORDER BY.
var fuzzSelects = []string{
	"select count(*) as n, count(f) as nf, sum(i) as si, avg(f) as af, sum(f) as sf, " +
		"min(s) as mn, max(f) as mx, last(i) as l from w where %s",
	"select s, count(*) as n, sum(i) as si, max(i) as mx, min(f) as mn from w where %s group by s",
	"select i, count(*) as n, avg(f) as af, last(s) as l from w where %s group by i " +
		"having count(*) > 1 order by n desc, i",
}

// fuzzDraw reads choices off the fuzz input, zero once it runs out.
type fuzzDraw []byte

func (d *fuzzDraw) next(n int) int {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return int(b) % n
}

// pred draws a boolean expression over i, f, s and TIMED: comparisons,
// AND, OR, NOT, IS NULL, BETWEEN, IN with a NULL item and LIKE. Some
// draws compare a string with a number, which fails on every row where
// both are non-NULL: the error path is drawn too.
func (d *fuzzDraw) pred(depth int) string {
	k := d.next(8)
	if depth > 2 {
		k = 0
	}
	switch k {
	case 1:
		return "(" + d.pred(depth+1) + " and " + d.pred(depth+1) + ")"
	case 2:
		return "(" + d.pred(depth+1) + " or " + d.pred(depth+1) + ")"
	case 3:
		return "not (" + d.pred(depth+1) + ")"
	case 4:
		return d.operand() + []string{" is null", " is not null"}[d.next(2)]
	case 5:
		return d.num() + " between " + d.num() + " and " + d.num()
	case 6:
		return "s like '" + []string{"a%", "%b", "_", "ab"}[d.next(4)] + "'"
	case 7:
		return d.num() + " in (1, 2.5, null, " + d.num() + ")"
	}
	op := []string{" = ", " <> ", " < ", " <= ", " > ", " >= "}[d.next(6)]
	if d.next(4) == 0 {
		return d.operand() + op + "'" + []string{"", "a", "ab", "b"}[d.next(4)] + "'"
	}
	return d.num() + op + d.num()
}

func (d *fuzzDraw) num() string {
	return []string{"i", "f", "timed % 7", "i + f", "i * 2 - 3", "length(s)", "coalesce(i, 0)",
		"-2", "0", "3", "1.5", "abs(f)"}[d.next(12)]
}

func (d *fuzzDraw) operand() string { return []string{"i", "f", "s"}[d.next(3)] }

// element draws a row: small ints, dyadic floats (every sum exact in
// any order), short strings, NULL in each column now and then.
func (d *fuzzDraw) element(t *testing.T, ts int) stream.Element {
	var i, f, s stream.Value = int64(d.next(9) - 3), float64(d.next(25)-12) / 4, []string{"a", "ab", "b", "", "ba"}[d.next(5)]
	for col, v := range []*stream.Value{&i, &f, &s} {
		if d.next(9) == col {
			*v = nil
		}
	}
	e, err := stream.NewElement(fuzzSchema, stream.Timestamp(ts), i, f, s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzMaintainedMatchesScan draws a non-volatile WHERE and a sequence of
// inserts, FIFO evictions and truncates, and checks after every step
// that the maintainer answers byte for byte what the plan's execution
// over the live rows answers. A maintainer may decline to answer (nil)
// only after an arrival its WHERE failed on, since the last truncate;
// whenever the execution fails, it must decline.
func FuzzMaintainedMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n < 48; n++ {
		seed := make([]byte, 24+rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDraw(data)
		where := d.pred(0)
		q := fmt.Sprintf(fuzzSelects[d.next(len(fuzzSelects))], where)
		plan, err := Compile(mustParse(t, q), ColumnsOfSchema(fuzzSchema), "w")
		if err != nil {
			t.Fatalf("%s: compile: %v", q, err)
		}
		inc := plan.Incremental()
		if inc == nil {
			t.Fatalf("%s: not maintainable", q)
		}
		m := NewAggMaintainer(inc)
		var live []stream.Element
		failed := false // an arrival's WHERE failed since the last truncate
		for step := 1; len(d) > 0; step++ {
			switch op := d.next(8); {
			case op < 5:
				e := d.element(t, step)
				if _, err := plan.Execute(RowsOfSource(&planTable{schema: fuzzSchema, elems: []stream.Element{e}}), Options{}); err != nil {
					failed = true
				}
				live = append(live, e)
				m.OnInsert(e)
			case op == 7 && d.next(4) == 0:
				live, failed = nil, false
				m.OnTruncate()
			default:
				for n := 1 + d.next(3); n > 0 && len(live) > 0; n-- {
					m.OnEvict(live[0])
					live = live[1:]
				}
			}
			want, wantErr := plan.Execute(RowsOfSource(&planTable{schema: fuzzSchema, elems: live}), Options{})
			got := m.Result(Options{})
			switch {
			case got == nil && !failed:
				t.Fatalf("%s, step %d: the maintainer declined with no failed arrival (execution: %v, %v)", q, step, want, wantErr)
			case got != nil && wantErr != nil:
				t.Fatalf("%s, step %d: maintained %v, execution failed: %v", q, step, got, wantErr)
			case got != nil && got.String() != want.String():
				t.Fatalf("%s, step %d (live=%d):\nmaintained:\n%v\nexecution:\n%v", q, step, len(live), got, want)
			}
		}
	})
}
