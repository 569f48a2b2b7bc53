package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
)

// runSet is the records of one side of a comparison, per workload.
type runSet map[string][]*result

// readRecords loads a JSON-lines file written with -out. Traced runs
// carry no end-to-end metrics and are skipped.
func readRecords(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !res.Trace {
			set[res.Workload] = append(set[res.Workload], &res)
		}
	}
	return set, sc.Err()
}

// quartiles returns the first quartile, the median and the third
// quartile as Python's statistics.quantiles(v, n=4) gives them (the
// exclusive method), so the spread printed here is the one the driver
// computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based rank
		lo := int(pos)
		lo = min(max(lo, 1), n-1)
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

// sideStats summarises one metric of one workload on one side.
type sideStats struct {
	n      int
	median float64
	spread float64 // (q3 - q1) / median
}

func statsOf(runs []*result, metric string) sideStats {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	if len(v) == 0 {
		return sideStats{}
	}
	q1, q2, q3 := quartiles(v)
	st := sideStats{n: len(v), median: q2}
	if q2 != 0 {
		st.spread = (q3 - q1) / q2
	}
	return st
}

// verdictOf compares a change's median with its parent's: worse is the
// share of the parent's median by which the change is worse (negative
// when it is better). A difference beyond the bound is a regression
// when it also exceeds the spread of the runs; where the spread is wider
// than the bound the comparison cannot resolve the bound at all.
func verdictOf(spec metricSpec, parent, change sideStats) (worse float64, verdict string) {
	if parent.n == 0 || change.n == 0 || parent.median == 0 {
		return 0, "unresolved"
	}
	worse = (change.median - parent.median) / parent.median
	if spec.Better == "higher" {
		worse = -worse
	}
	spread := max(parent.spread, change.spread)
	switch {
	case worse > spec.Bound && worse > spread:
		return worse, "regressed"
	case spread > spec.Bound:
		return worse, "unresolved"
	}
	return worse, "unchanged"
}

func failedShare(runs []*result) float64 {
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles prints, per workload and end-to-end metric, the change's
// median against the parent's and the verdict, and returns the exit
// code: 1 when any metric regressed or a workload's failed share grew, 2
// when the two files cannot be compared at all.
func compareFiles(w io.Writer, parentPath, changePath string) int {
	parent, err := readRecords(parentPath)
	if err == nil {
		var change runSet
		if change, err = readRecords(changePath); err == nil {
			return compareSets(w, parent, change)
		}
	}
	fmt.Fprintln(w, "benchmark:", err)
	return 2
}

// comparable reports why two sides' runs of one workload cannot be
// compared: they must have run the same seeds for the same number of
// seconds at the same frozen rates and limits. "" when they can.
func comparable(parent, change []*result) string {
	first := parent[0]
	for _, side := range [][]*result{parent, change} {
		for _, r := range side {
			if r.Seconds != first.Seconds {
				return fmt.Sprintf("windows of %vs and %vs", first.Seconds, r.Seconds)
			}
			if !reflect.DeepEqual(r.Frozen, first.Frozen) {
				return fmt.Sprintf("different frozen constants: %v and %v", first.Frozen, r.Frozen)
			}
		}
	}
	seeds := func(runs []*result) []int64 {
		s := make([]int64, len(runs))
		for i, r := range runs {
			s[i] = r.Seed
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	if p, c := seeds(parent), seeds(change); !reflect.DeepEqual(p, c) {
		return fmt.Sprintf("the seeds do not pair up: parent %v, change %v", p, c)
	}
	return ""
}

// validOnly drops the runs that flagged themselves invalid: their
// generator ran late, so what they timed was the generator.
func validOnly(runs []*result) []*result {
	var out []*result
	for _, r := range runs {
		if r.Valid {
			out = append(out, r)
		}
	}
	return out
}

func compareSets(w io.Writer, parent, change runSet) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "parent", "change", "worse", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		p, c := parent[name], change[name]
		if len(p) == 0 || len(c) == 0 {
			fmt.Fprintf(w, "%-16s no runs on one side (parent %d, change %d)\n", name, len(p), len(c))
			code = max(code, 1)
			continue
		}
		if why := comparable(p, c); why != "" {
			fmt.Fprintf(w, "%-16s cannot be compared: %s\n", name, why)
			code = 2
			continue
		}
		// Medians are taken over the valid runs; a side without any leaves
		// every metric unresolved. The failed share counts every run.
		pv, cv := validOnly(p), validOnly(c)
		for _, spec := range endToEnd {
			ps, cs := statsOf(pv, spec.Name), statsOf(cv, spec.Name)
			worse, verdict := verdictOf(spec, ps, cs)
			if verdict == "regressed" {
				code = max(code, 1)
			}
			fmt.Fprintf(w, "%-16s %-24s %14.4f %14.4f %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				name, spec.Name, ps.median, cs.median, 100*worse, 100*max(ps.spread, cs.spread), 100*spec.Bound, verdict)
		}
		pf, cf := failedShare(p), failedShare(c)
		verdict := "unchanged"
		if cf > pf {
			verdict, code = "regressed", max(code, 1)
		}
		fmt.Fprintf(w, "%-16s %-24s %14.6f %14.6f %8s %8s %7s  %s (valid runs: parent %d of %d, change %d of %d)\n",
			name, "failed_share", pf, cf, "", "", "", verdict, len(pv), len(p), len(cv), len(c))
	}
	return code
}
