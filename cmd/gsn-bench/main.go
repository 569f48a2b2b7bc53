// Command gsn-bench regenerates the paper's evaluation (Figures 3 and
// 4, the wrapper-effort claim) and the ablation studies on this
// machine, printing the same series the paper plots and writing CSVs
// for external plotting.
//
// Usage:
//
//	gsn-bench -experiment figure3 [-duration 1s] [-out bench_results]
//	gsn-bench -experiment figure4
//	gsn-bench -experiment wrappers
//	gsn-bench -experiment ablation
//	gsn-bench -experiment ingest
//	gsn-bench -experiment queries
//	gsn-bench -experiment grouped
//	gsn-bench -experiment cascade
//	gsn-bench -experiment history
//	gsn-bench -experiment scaling
//	gsn-bench -experiment all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gsn/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: figure3, figure4, wrappers, ablation, ingest, queries, grouped, cascade, history, scaling, all")
	duration := flag.Duration("duration", time.Second,
		"measurement window per figure3 point (the paper's run used longer windows; shape is stable from ~1s)")
	outDir := flag.String("out", "bench_results", "directory for CSV output (empty to skip)")
	quick := flag.Bool("quick", false, "heavily scaled-down sweep for smoke testing")
	flag.Parse()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Println()
	}

	run("figure3", func() error {
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
	})

	run("figure4", func() error {
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
	})

	run("wrappers", func() error {
		efforts, err := bench.RunWrapperEffort()
		if err != nil {
			return err
		}
		fmt.Print(bench.WrapperEffortTable(efforts))
		return nil
	})

	run("ablation", func() error {
		return bench.RunAblations(os.Stdout)
	})

	run("queries", func() error {
		cfg := bench.DefaultQueries()
		if *quick {
			cfg.Counts = []int{1, 100, 1000}
			cfg.Sweeps = 3
			cfg.MaxSerialSweepQueries = 20_000
		}
		res, err := bench.RunQueries(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		fmt.Println()
		fmt.Print(res.ShapeReport())
		return writeCSV(*outDir, "queries.csv", res.CSV())
	})

	run("grouped", func() error {
		cfg := bench.DefaultGrouped()
		if *quick {
			cfg.Cardinalities = []int{1, 100}
			cfg.Queries = 200
			cfg.Sweeps = 3
			cfg.MaxSerialSweepQueries = 10_000
		}
		res, err := bench.RunGrouped(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		fmt.Println()
		fmt.Print(res.ShapeReport())
		return writeCSV(*outDir, "grouped.csv", res.CSV())
	})

	run("cascade", func() error {
		cfg := bench.DefaultCascade()
		if *quick {
			cfg.Tiers = []int{1, 2, 4}
			cfg.Elements = 500
		}
		res, err := bench.RunCascade(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		fmt.Println()
		fmt.Print(res.ShapeReport())
		return writeCSV(*outDir, "cascade.csv", res.CSV())
	})

	run("history", func() error {
		cfg := bench.DefaultHistory()
		if *quick {
			cfg.Retentions = []int{2_000, 20_000}
			cfg.HotWindow = 200
			cfg.ScanRows = 400
		}
		res, err := bench.RunHistory(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		return writeCSV(*outDir, "history.csv", res.CSV())
	})

	run("ingest", func() error {
		cfg := bench.DefaultIngest()
		if *quick {
			cfg.Elements = 20_000
		}
		res, err := bench.RunIngest(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		return writeCSV(*outDir, "ingest.csv", res.CSV())
	})

	run("scaling", func() error {
		cfg := bench.DefaultScaling()
		if *quick {
			cfg.Producers = []int{1, 4}
			cfg.Elements = 2_000
			cfg.DurableElements = 200
			cfg.Repeats = 1
		}
		res, err := bench.RunScaling(cfg, os.Stdout)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(res.Table())
		return writeCSV(*outDir, "scaling.csv", res.CSV())
	})
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
