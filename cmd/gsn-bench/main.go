// Command gsn-bench regenerates the paper's evaluation (Figures 3 and
// 4, the wrapper-effort claim) on this machine, printing the same
// series the paper plots and, with -out, writing CSVs for external
// plotting. It measures nothing else: the performance of the program is
// the job of benchmark/ (see BENCHMARK.json).
//
// Usage:
//
//	gsn-bench -experiment figure3 [-duration 1s] [-out DIR]
//	gsn-bench -experiment figure4
//	gsn-bench -experiment wrappers
//	gsn-bench -experiment all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gsn/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: "+strings.Join(bench.Experiments, ", ")+", all")
	duration := flag.Duration("duration", time.Second,
		"measurement window per figure3 point (the paper's run used longer windows; shape is stable from ~1s)")
	outDir := flag.String("out", "", "directory for CSV output (empty: print only)")
	quick := flag.Bool("quick", false, "heavily scaled-down sweep for smoke testing")
	flag.Parse()

	if err := bench.CheckExperiment(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "gsn-bench:", err)
		os.Exit(2)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	// One runner per name in bench.Experiments, which also fixes the order
	// of -experiment all.
	runners := map[string]func() error{}

	runners["figure3"] = func() error {
		cfg := bench.DefaultFigure3()
		cfg.Duration = *duration
		if *quick {
			cfg.Intervals = cfg.Intervals[:3]
			cfg.Sizes = []string{"100B", "32KB"}
			cfg.Duration = 300 * time.Millisecond
		}
		res, err := bench.RunFigure3(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		fmt.Println()
		fmt.Print(res.ShapeReport())
		return writeCSV(*outDir, "figure3.csv", res.CSV())
	}

	runners["figure4"] = func() error {
		cfg := bench.DefaultFigure4()
		if *quick {
			cfg.ClientCounts = []int{0, 50, 100}
			cfg.ArrivalsPerPoint = 5
		}
		res, err := bench.RunFigure4(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		fmt.Println()
		fmt.Print(res.ShapeReport())
		return writeCSV(*outDir, "figure4.csv", res.CSV())
	}

	runners["wrappers"] = func() error {
		efforts, err := bench.RunWrapperEffort()
		if err != nil {
			return err
		}
		fmt.Print(bench.WrapperEffortTable(efforts))
		return nil
	}

	for _, name := range bench.Experiments {
		if *experiment != "all" && *experiment != name {
			continue
		}
		fmt.Printf("=== %s ===\n", name)
		if err := runners[name](); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}
}

func writeCSV(dir, name, content string) error {
	if dir == "" {
		return nil
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsn-bench:", err)
	os.Exit(1)
}
