// Command benchmark is the repository's performance ledger: four
// workloads that drive real containers through their public API with
// seeded inputs, check every output against a reference computed here,
// and print the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run). See README.md.
//
//	go run ./benchmark -workload pipeline_steady -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "1 = traced run: seam wrappers, spans and layer probes; prints the per-layer metrics")
		smoke        = flag.Bool("smoke", false, "one set-up, two recoveries (with a short -seconds: the test mode)")
		out          = flag.String("out", "", "append the run's full record to this JSON-lines file")
		compare      = flag.Bool("compare", false, "compare two JSON-lines record files: -compare parent.jsonl change.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare parent.jsonl change.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	// The benchmark builds the program from source and imports it, so it
	// only runs inside the repository; anywhere else there is nothing to
	// measure.
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: run from the repository root (go.mod not found)")
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workloadName,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace != 0,
		smoke:    *smoke,
		outDir:   filepath.Join("benchmark", "out"),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	res, err := execute(cfg)
	if err == nil && !res.Valid {
		// The generator ran late, so the run timed the generator (a stall of
		// the machine, by every case seen so far). The driver's result line
		// has no field to say so: measure once more and report that.
		fmt.Fprintf(os.Stderr, "benchmark: the run was invalid (%v); measuring once more\n", res.Notes)
		res, err = execute(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	res.report(specs)
	if *out != "" {
		if err := appendRecord(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	fmt.Println(res.lastLine(specs))
	if !res.Correct {
		os.Exit(1)
	}
}

// lastLine renders the driver's contract line: correct, attempted,
// failed and one {value, unit} per metric of the run's kind.
func (res *result) lastLine(specs []metricSpec) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, s := range specs {
		ms[s.Name] = mv{Value: res.Metrics[s.Name].Value, Unit: s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

func appendRecord(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
