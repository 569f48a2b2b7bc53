package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

// TestSpecMatchesBenchmarkJSON keeps spec.go and BENCHMARK.json equal,
// name for name and in order, and inside the limits the driver refuses
// a file for.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.go %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in spec.go", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := frozen[w.Name]; !ok {
			t.Errorf("workload %s has no frozen calibration", w.Name)
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, spec.go %d", len(doc.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		s := endToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, spec.go %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, spec.go %d (at most 128)", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		s := perLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, spec.go %+v", i, m, s)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside [1, 60]", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", doc.Paths)
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 7, window: 1500 * time.Millisecond, trace: trace, smoke: true, outDir: t.TempDir()}
}

// TestSmoke runs every workload, untraced and traced, in smoke mode: the
// oracle must pass with no failed operation, and the result line must
// carry exactly the names and units BENCHMARK.json lists for that kind
// of run.
func TestSmoke(t *testing.T) {
	doc := readBenchmarkJSON(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			kind := map[bool]string{false: "end_to_end", true: "per_layer"}[trace]
			t.Run(w+"/"+kind, func(t *testing.T) {
				res, err := execute(smokeConfig(t, w, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
				}
				specs := endToEnd
				want := map[string]string{}
				if trace {
					specs = perLayer
					for _, m := range doc.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range doc.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				var line struct {
					Correct   bool  `json:"correct"`
					Attempted int64 `json:"attempted"`
					Failed    int64 `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(res.lastLine(specs)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("the result line has %d metrics, BENCHMARK.json %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := line.Metrics[name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("metric %s is missing from the result line", name)
					case got.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					case !trace && *got.Value <= 0:
						t.Errorf("end-to-end metric %s is %v: it must never be 0", name, *got.Value)
					}
				}
				if trace {
					if _, err := os.Stat(res.TraceFile); err != nil {
						t.Errorf("the traced run left no span file: %v", err)
					}
					if share := res.Metrics["trace.attributed_share"].Value; w == wPipeline && share < 0.9 {
						t.Errorf("named spans cover %.2f of emit → delivery, want at least 0.90", share)
					}
				}
			})
		}
	}
}

// TestCoordinatedOmission stalls the sink: every 100 ms the
// generator's emit call blocks for 50 ms, as a wrapper's consumer would
// when the system stops taking elements. The elements that came due
// during a stall go out late, and because latency runs from the due time
// both the generator lag and the result latency must show the stall; the
// time from the (late) emit to the delivery, which is what a generator
// that timed from the send would report, must not.
func TestCoordinatedOmission(t *testing.T) {
	cfg := smokeConfig(t, wPipeline, false)
	cfg.window = 2 * time.Second
	var last time.Time
	cfg.beforeEmit = func() {
		if time.Since(last) >= 100*time.Millisecond {
			time.Sleep(50 * time.Millisecond)
			last = time.Now()
		}
	}
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("failed operations: %v", res.Failures)
	}
	lag := res.Metrics["loadgen.lag_p95_ms"].Value
	p95 := res.Raw["result_latency_p95_ms"] // as measured: under the race detector the reference speed is far off
	fromSend := res.Metrics["core.trigger_to_delivery_ms_p50"].Value
	if lag < 20 {
		t.Errorf("loadgen.lag_p95_ms = %.2f: a sink stalled 50 ms in every 150 must show as generator lag", lag)
	}
	if p95 < 20 {
		t.Errorf("result_latency_p95_ms = %.2f: latency timed from the due time must include the stall", p95)
	}
	if fromSend >= 20 {
		t.Errorf("core.trigger_to_delivery_ms_p50 = %.2f: timed from the send, the stall should be invisible", fromSend)
	}
}

// TestOverloadedGeneratorStops keeps every source overdue: each emit call
// takes longer than the time to the next due element, which is what a
// system that has stopped keeping up looks like to the conductor. The run
// must still end, and say how late the generator ran.
func TestOverloadedGeneratorStops(t *testing.T) {
	cfg := smokeConfig(t, wPipeline, false)
	cfg.beforeEmit = func() { time.Sleep(5 * time.Millisecond) }
	done := make(chan *result, 1)
	go func() {
		res, err := execute(cfg)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res != nil && res.Metrics["loadgen.lag_p95_ms"].Value < 100 {
			t.Errorf("loadgen.lag_p95_ms = %.2f under an overload that leaves the generator ever further behind", res.Metrics["loadgen.lag_p95_ms"].Value)
		}
	case <-time.After(time.Minute):
		t.Fatal("the run did not end: the conductor never looked at the stop signal")
	}
}

// TestClientStart pins the rule for where a statement or a deploy is
// timed from: its due time when the client was still busy then (the
// backlog is the system's doing), the moment the client got to it when the
// client was idle (the wake-up is the generator's lag).
func TestClientStart(t *testing.T) {
	r := &run{epoch: time.Now().Add(-time.Second)}
	due := r.now() - int64(5*time.Millisecond)
	if t0, lag := r.clientStart(due, due+1); t0 != due || lag != -1 {
		t.Errorf("busy client: timed from %d with lag %d, want from the due time %d with lag -1", t0, lag, due)
	}
	t0, lag := r.clientStart(due, due-1)
	if t0 <= due || lag != t0-due {
		t.Errorf("idle client: timed from %d with lag %d, want from now (after %d) with lag now-due", t0, lag, due)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// gives [3.5, 13.5, 31.0].
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := endToEnd[1]
	if spec.Name != "result_latency_p50_ms" {
		t.Fatalf("endToEnd[1] is %s", spec.Name)
	}
	// set builds one side: a run per latency (seeds 1, 2, ...) of every
	// workload, changed by edit.
	set := func(edit func(seed int, r *result), latencies ...float64) runSet {
		s := runSet{}
		for _, w := range workloadNames {
			for i, l := range latencies {
				r := &result{Workload: w, Seed: int64(i + 1), Seconds: 20, Valid: true, Attempted: 100,
					Frozen:  map[string]any{"feed_rate_eps": 100.0},
					Metrics: metrics{spec.Name: {Value: l, Unit: "ms"}}}
				if edit != nil {
					edit(i+1, r)
				}
				s[w] = append(s[w], r)
			}
		}
		return s
	}
	parent := set(nil, 1.00, 1.01, 0.99, 1.00, 1.02)
	for _, c := range []struct {
		name    string
		change  runSet
		verdict string
		code    int
	}{
		{"same", set(nil, 1.01, 1.00, 1.00, 0.99, 1.02), "unchanged", 0},
		{"better", set(nil, 0.80, 0.81, 0.79, 0.80, 0.82), "unchanged", 0},
		{"worse", set(nil, 1.30, 1.31, 1.29, 1.30, 1.32), "regressed", 1},
		{"noisy", set(nil, 0.70, 1.40, 1.00, 0.60, 1.30), "unresolved", 0},
		{"failing", set(func(_ int, r *result) { r.Failed = 3 }, 1.01, 1.00, 1.00, 0.99, 1.02), "unchanged", 1},
		// The three slow runs measured their own late generator and said so.
		{"invalid runs", set(func(seed int, r *result) { r.Valid = seed > 3 }, 9, 9, 9, 1.00, 1.01), "unchanged", 0},
		{"no valid run", set(func(_ int, r *result) { r.Valid = false }, 1, 1, 1, 1, 1), "unresolved", 0},
		{"other seeds", set(func(_ int, r *result) { r.Seed += 5 }, 1.01, 1.00, 1.00, 0.99, 1.02), "", 2},
		{"other window", set(func(_ int, r *result) { r.Seconds = 10 }, 1.01, 1.00, 1.00, 0.99, 1.02), "", 2},
		{"other rate", set(func(_ int, r *result) { r.Frozen = map[string]any{"feed_rate_eps": 50.0} }, 1.01, 1.00, 1.00, 0.99, 1.02), "", 2},
	} {
		var out bytes.Buffer
		if code := compareSets(&out, parent, c.change); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if c.verdict == "" {
			continue
		}
		_, verdict := verdictOf(spec, statsOf(validOnly(parent[wPipeline]), spec.Name), statsOf(validOnly(c.change[wPipeline]), spec.Name))
		if verdict != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, verdict, c.verdict)
		}
	}
}
