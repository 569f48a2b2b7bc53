package bench

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

// The tests run heavily scaled-down versions of the experiments: they
// verify the harness wiring and the qualitative shape, not absolute
// numbers (those are the job of cmd/gsn-bench runs).

func TestFigure3Scaled(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time paced experiment")
	}
	cfg := Figure3Config{
		Intervals: []time.Duration{10 * time.Millisecond, 100 * time.Millisecond},
		Sizes:     []string{"100B", "16KB"},
		Duration:  300 * time.Millisecond,
		Motes:     4,
		Cameras:   4,
		Networks:  2,
	}
	res, err := RunFigure3(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Elements == 0 {
			t.Errorf("point %s/%v measured no elements", p.Size, p.Interval)
		}
		// Sanity-bound the throughput. The lower bound stays loose: the
		// whole test suite runs in parallel with this paced experiment,
		// so a loaded machine legitimately throttles the producers.
		want := float64(8) / p.Interval.Seconds()
		if p.Throughput > want*3 {
			t.Errorf("throughput %s/%v = %.1f eps, want ≤≈%.1f", p.Size, p.Interval, p.Throughput, want)
		}
	}
	tab := res.Table()
	if !strings.Contains(tab, "16KB") || !strings.Contains(tab, "100ms") {
		t.Errorf("table = %s", tab)
	}
	if csv := res.CSV(); !strings.HasPrefix(csv, "size,interval_ms") {
		t.Errorf("csv header = %.40s", csv)
	}
	if rep := res.ShapeReport(); rep == "" {
		t.Error("empty shape report")
	}
}

func TestFigure4Scaled(t *testing.T) {
	cfg := Figure4Config{
		ClientCounts:     []int{0, 10, 40},
		SES:              "16KB",
		Window:           "10",
		ArrivalsPerPoint: 5,
		BurstProbability: 0,
		BurstLen:         2,
		MinHistory:       time.Second,
		MaxHistory:       time.Minute,
		Seed:             1,
	}
	res, err := RunFigure4(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].TotalMeanMS != 0 {
		t.Errorf("0 clients should cost 0, got %v", res.Points[0].TotalMeanMS)
	}
	if res.Points[2].TotalMeanMS <= res.Points[1].TotalMeanMS*0.5 {
		t.Errorf("40 clients (%.4fms) not clearly above 10 clients (%.4fms)",
			res.Points[2].TotalMeanMS, res.Points[1].TotalMeanMS)
	}
	if !strings.Contains(res.Table(), "clients") {
		t.Error("table missing header")
	}
	if !strings.Contains(res.ShapeReport(), "per-client") {
		t.Error("shape report malformed")
	}
}

func TestFigure4BurstsSpike(t *testing.T) {
	cfg := DefaultFigure4()
	cfg.ClientCounts = []int{30}
	cfg.ArrivalsPerPoint = 5
	cfg.BurstProbability = 1 // force a burst
	cfg.SES = "16KB"
	res, err := RunFigure4(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Points[0].Burst {
		t.Error("burst not recorded")
	}
}

func TestRandomClientQueriesAreValid(t *testing.T) {
	cfg := DefaultFigure4()
	// Every generated query must parse and carry the paper's shape.
	rngQueries := 50
	seen := map[string]bool{}
	rng := newTestRand()
	for i := 0; i < rngQueries; i++ {
		sql, sampling := randomClientQuery(rng, cfg)
		if sampling < 0.1 || sampling > 0.9 {
			t.Errorf("sampling %v outside [0.1,0.9]", sampling)
		}
		if !strings.Contains(sql, "timed >=") || !strings.Contains(sql, "and") {
			t.Errorf("query lacks predicates: %s", sql)
		}
		seen[sql] = true
	}
	if len(seen) < rngQueries/2 {
		t.Errorf("only %d distinct queries of %d", len(seen), rngQueries)
	}
}

func TestWrapperEffortClaim(t *testing.T) {
	efforts, err := RunWrapperEffort()
	if err != nil {
		t.Fatal(err)
	}
	if len(efforts) != len(wrapperSources) {
		t.Fatalf("efforts = %d", len(efforts))
	}
	for _, e := range efforts {
		// The paper's claim: wrappers stay small (100–200 LoC for Java;
		// allow headroom for Go's error handling).
		if e.Lines < 30 || e.Lines > 320 {
			t.Errorf("%s = %d code lines, outside the small-wrapper claim", e.Kind, e.Lines)
		}
	}
	tab := WrapperEffortTable(efforts)
	if !strings.Contains(tab, "mote") {
		t.Errorf("table = %s", tab)
	}
}

// TestCheckExperiment pins the names gsn-bench accepts: a retired or
// misspelt experiment must be an error, not a silent no-op.
func TestCheckExperiment(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"figure3", true}, {"figure4", true}, {"wrappers", true}, {"all", true},
		{"cluster", false}, {"scaling", false}, {"ablation", false},
		{"figure", false}, {"Figure3", false}, {"", false},
	} {
		err := CheckExperiment(tc.name)
		if (err == nil) != tc.ok {
			t.Errorf("CheckExperiment(%q) = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "figure3, figure4, wrappers, all") {
			t.Errorf("CheckExperiment(%q) error %q does not list the valid names", tc.name, err)
		}
	}
}
