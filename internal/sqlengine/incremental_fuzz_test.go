package sqlengine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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

// frontier draws the NOW()-relative lower bound a WHERE may carry
// beside its predicate, in one of its three spellings, or none.
func (d *fuzzDraw) frontier() string {
	h := []string{"0", "3", "10", "25"}[d.next(4)]
	switch d.next(4) {
	case 1:
		return "timed >= now() - " + h
	case 2:
		return "timed > now() - " + h
	case 3:
		return "now() - " + h + " <= timed"
	}
	return ""
}

// FuzzMaintainedMatchesScan draws a WHERE — a NOW()-free predicate, and
// perhaps a frontier (a NOW()-relative lower bound on TIMED) before or
// after it — and a sequence of steps on a window over a
// stream.ManualClock: arrivals (now and then out of timestamp order),
// FIFO evictions, truncates, clock advances with no arrival, the clock
// set backwards, and resets (what a float-drift resync does). At random
// steps it reads the maintainer as the container does, with the live
// window and the arrival ordinal of its first row, so a read may skip
// rows that arrived and left since the last one. Every answer must be
// byte for byte what the plan's execution over the live rows answers at
// the same instant. The maintainer must decline (nil) whenever the
// execution fails, and may decline only while a live row fails the
// predicate or, with a frontier drawn, a live row the predicate keeps
// sits below the frontier behind one at or above it: arrival order
// cannot take it out.
func FuzzMaintainedMatchesScan(f *testing.F) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n < 48; n++ {
		seed := make([]byte, 24+rng.Intn(200))
		rng.Read(seed)
		f.Add(seed)
	}
	cols := ColumnsOfSchema(fuzzSchema)
	f.Fuzz(func(t *testing.T, data []byte) {
		d := fuzzDraw(data)
		pred := d.pred(0)
		where, fr := pred, d.frontier()
		switch {
		case fr != "" && d.next(2) == 0:
			where = fr + " and (" + pred + ")"
		case fr != "":
			where = "(" + pred + ") and " + fr
		}
		shape := fuzzSelects[d.next(len(fuzzSelects))]
		q := fmt.Sprintf(shape, where)
		plan, err := Compile(mustParse(t, q), cols, "w")
		if err != nil {
			t.Fatalf("%s: compile: %v", q, err)
		}
		inc := plan.Incremental()
		if inc == nil {
			t.Fatalf("%s: not maintainable", q)
		}
		// predOnly runs the predicate alone: it fails on the window when
		// a live row fails it, which poisons the maintainer.
		predOnly, err := Compile(mustParse(t, "select count(*) from w where "+pred), cols, "w")
		if err != nil {
			t.Fatalf("%s: compile: %v", pred, err)
		}
		// frOnly runs the frontier alone, on one row at a time (stuck).
		var frOnly *Plan
		if fr != "" {
			if frOnly, err = Compile(mustParse(t, "select count(*) from w where "+fr), cols, "w"); err != nil {
				t.Fatalf("%s: compile: %v", fr, err)
			}
		}
		clock := stream.NewManualClock(1000)
		opts := Options{Clock: clock}
		m := NewAggMaintainer(inc)
		var first uint64 // arrival ordinal of live[0]
		var live []stream.Element
		// keeps reports whether p, a count(*) over a WHERE, keeps e now.
		keeps := func(p *Plan, e stream.Element) bool {
			rel, err := p.Execute(RowsOfSource(&planTable{schema: fuzzSchema, elems: []stream.Element{e}}), opts)
			return err == nil && rel.Rows[0][0] == int64(1)
		}
		// stuck reports whether a live row the predicate keeps is below
		// the frontier behind one the frontier keeps.
		stuck := func() bool {
			above := false
			for _, e := range live {
				switch {
				case frOnly == nil || !keeps(predOnly, e):
				case keeps(frOnly, e):
					above = true
				case above:
					return true
				}
			}
			return false
		}
		for step := 1; len(d) > 0; step++ {
			switch op := d.next(16); {
			case op < 6:
				ts := int(clock.Now()) + []int{0, 0, 0, 0, 1, -3, -30, 2}[d.next(8)]
				live = append(live, d.element(t, ts))
				clock.Advance(time.Duration(d.next(4)) * time.Millisecond)
			case op < 8:
				n := min(1+d.next(3), len(live))
				first, live = first+uint64(n), live[n:]
			case op == 8:
				first, live = first+uint64(len(live)), nil
			case op == 9:
				clock.Advance(time.Duration(d.next(25)) * time.Millisecond)
			case op == 10:
				clock.Set(clock.Now() - stream.Timestamp(d.next(20)))
			case op == 11:
				m.Reset()
			default:
				rows := RowsOfSource(&planTable{schema: fuzzSchema, elems: live})
				want, wantErr := plan.Execute(rows, opts)
				got := m.Read(first, live, opts)
				_, predErr := predOnly.Execute(rows, opts)
				switch {
				case got == nil && wantErr == nil && predErr == nil && !stuck():
					t.Fatalf("%s, step %d: the maintainer declined (execution: %v)", q, step, want)
				case got != nil && wantErr != nil:
					t.Fatalf("%s, step %d: maintained %v, execution failed: %v", q, step, got, wantErr)
				case got != nil && got.String() != want.String():
					t.Fatalf("%s, step %d (live=%d, now=%d):\nmaintained:\n%v\nexecution:\n%v", q, step, len(live), clock.Now(), got, want)
				}
			}
		}
	})
}
