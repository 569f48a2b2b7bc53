package sqlengine

import (
	"math/rand"
	"testing"

	"gsn/internal/stream"
)

// makePartitionRows builds one partition's rows over planSchema
// (v int, f float, timed). Values are drawn from domains where float
// addition is exact — ints and multiples of 0.25 with bounded
// magnitude — so the coordinator's re-associated SUM/AVG/STDDEV is
// bit-identical to the union fold, and the equivalence check can be
// byte-for-byte. NULLs appear in both columns.
func makePartitionRows(rng *rand.Rand, n int, keySkew int) [][]stream.Value {
	rows := make([][]stream.Value, 0, n)
	for i := 0; i < n; i++ {
		var v stream.Value = int64(rng.Intn(keySkew))
		if rng.Intn(11) == 0 {
			v = nil
		}
		var f stream.Value = float64(rng.Intn(4001)-2000) * 0.25
		if rng.Intn(7) == 0 {
			f = nil
		}
		rows = append(rows, []stream.Value{v, f, int64(rng.Intn(1_000_000))})
	}
	return rows
}

// wireTrip round-trips a partial rollup through its binary wire
// encoding, as the federation endpoints do, so the test pins that the
// codec — not just the in-memory merge — preserves equivalence.
func wireTrip(t *testing.T, p *PartialRollup) *PartialRollup {
	t.Helper()
	r := stream.NewReader(AppendPartial(nil, p))
	out := ReadPartial(r)
	if err := r.Done(); err != nil {
		t.Fatalf("decode partial: %v", err)
	}
	return out
}

// TestPartialMergeEquivalence is the distributed GROUP BY property
// test: for random partitionings of random rows across 2–4 workers —
// including empty partitions and heavy key skew — per-partition
// ExecutePartial shipped through the binary wire codec and merged with
// MergePartials must be byte-identical to the interpreted Plan.Execute
// over the partitions' union concatenated in part order.
func TestPartialMergeEquivalence(t *testing.T) {
	queries := []string{
		"select v, count(*) as n from w group by v",
		"select v, count(f) as nf, sum(f) as s, avg(f) as a from w group by v",
		"select v, min(f) as mn, max(f) as mx from w group by v",
		"select v, first(f) as ff, last(f) as lf from w group by v",
		"select v, stddev(f) as sd from w group by v",
		"select v % 5 as bucket, sum(v) as s from w group by v % 5",
		"select v, count(*) as n from w where f > 0 group by v",
		"select v, count(*) as n from w group by v having count(*) > 3",
		"select v, avg(f) as a from w group by v having avg(f) > 0 and v is not null",
		"select v, f, count(*) as n from w group by v, f",
		"select v, count(*) as n from w group by v order by n desc, v",
		"select v, sum(f) as s from w group by v order by s limit 4",
		"select count(*) as n, sum(v) as s, min(f) as mn from w", // ungrouped: one row even when empty
		"select count(*) as n from w where v > 100000",           // empty after WHERE: synthesis on the coordinator
	}
	plans := make([]*Plan, len(queries))
	for i, q := range queries {
		plans[i] = compilePlan(t, q)
		if !plans[i].Distributable() {
			t.Fatalf("%s: expected distributable", q)
		}
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		nodes := 2 + rng.Intn(3) // 2..4
		keySkew := 3 + rng.Intn(8)
		parts := make([][][]stream.Value, nodes)
		var union [][]stream.Value
		for p := 0; p < nodes; p++ {
			n := rng.Intn(40)
			switch rng.Intn(4) {
			case 0:
				n = 0 // empty partition
			case 1:
				n = 120 // skewed placement: one node holds most rows
			}
			parts[p] = makePartitionRows(rng, n, keySkew)
			union = append(union, parts[p]...)
		}

		for qi, plan := range plans {
			partials := make([]*PartialRollup, nodes)
			for p := 0; p < nodes; p++ {
				pr, err := plan.ExecutePartial(parts[p], Options{})
				if err != nil {
					t.Fatalf("%s: partial[%d]: %v", queries[qi], p, err)
				}
				partials[p] = wireTrip(t, pr)
			}
			got, err := plan.MergePartials(partials, Options{})
			if err != nil {
				t.Fatalf("%s: merge: %v", queries[qi], err)
			}
			want, err := plan.Execute(union, Options{})
			if err != nil {
				t.Fatalf("%s: union execute: %v", queries[qi], err)
			}
			if got.String() != want.String() {
				t.Fatalf("%s (trial %d, nodes %d):\nmerged:\n%s\nunion:\n%s",
					queries[qi], trial, nodes, got, want)
			}
		}
	}
}

// TestPartialMergeSingleNodeDegenerate: with one partition holding
// everything, merge is exactly local execution (the coordinator's
// no-remote-owner fast path depends on this identity holding).
func TestPartialMergeSingleNodeDegenerate(t *testing.T) {
	plan := compilePlan(t, "select v, count(*) as n, sum(f) as s from w group by v having count(*) > 0")
	rng := rand.New(rand.NewSource(5))
	rows := makePartitionRows(rng, 80, 6)
	pr, err := plan.ExecutePartial(rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.MergePartials([]*PartialRollup{wireTrip(t, pr)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute(rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("single-partition merge diverged:\nmerged:\n%s\nlocal:\n%s", got, want)
	}
}

// TestPartialMergeSkipsNilParts: an owner that failed to contribute is
// a nil entry; the merge treats it as an empty partition.
func TestPartialMergeSkipsNilParts(t *testing.T) {
	plan := compilePlan(t, "select v, count(*) as n from w group by v")
	rng := rand.New(rand.NewSource(9))
	rows := makePartitionRows(rng, 30, 4)
	pr, err := plan.ExecutePartial(rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.MergePartials([]*PartialRollup{nil, pr, nil}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute(rows, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("nil-part merge diverged:\nmerged:\n%s\nlocal:\n%s", got, want)
	}
}

func TestDistributableDetection(t *testing.T) {
	eligible := []string{
		"select v, count(*) as n from w group by v",
		"select v % 3 as b, avg(f) as a from w group by v % 3 having avg(f) > 1",
		"select count(*) as n from w",
		"select v, stddev(f) as sd from w where f > 0 group by v order by sd desc limit 2",
	}
	for _, q := range eligible {
		if !compilePlan(t, q).Distributable() {
			t.Errorf("%s: should be distributable", q)
		}
	}
	ineligible := []string{
		"select v, f from w", // ungrouped row shape: ship rows, not states
		"select v, count(distinct f) as n from w group by v",                   // DISTINCT state is not mergeable
		"select v, count(*) as n from w where timed > now() - 5000 group by v", // node clocks diverge
	}
	for _, q := range ineligible {
		if compilePlan(t, q).Distributable() {
			t.Errorf("%s: should NOT be distributable", q)
		}
	}
}

// TestMergePartialsRejectsMalformedParts: parts arrive from peers. One
// whose groups do not have the plan's shape — another schema's row
// width, another statement's aggregate count — or a statement with no
// groups to merge is an error, never an index out of range.
func TestMergePartialsRejectsMalformedParts(t *testing.T) {
	plan := compilePlan(t, "select v, f, count(*) as n from w group by v")
	good, err := plan.ExecutePartial(makePartitionRows(rand.New(rand.NewSource(3)), 10, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	short, fewer := *wireTrip(t, good), *wireTrip(t, good)
	short.Groups[0].Rep = short.Groups[0].Rep[:1]
	fewer.Groups[0].Aggs = nil
	for name, part := range map[string]*PartialRollup{"short representative row": &short, "missing aggregate states": &fewer} {
		if _, err := plan.MergePartials([]*PartialRollup{good, part}, Options{}); err == nil {
			t.Errorf("%s: merged", name)
		}
	}
	ungrouped := compilePlan(t, "select v, f from w")
	if _, err := ungrouped.ExecutePartial(nil, Options{}); err == nil {
		t.Error("an ungrouped statement computed a partial rollup")
	}
	if _, err := ungrouped.MergePartials([]*PartialRollup{good}, Options{}); err == nil {
		t.Error("an ungrouped statement merged partial rollups")
	}
}
