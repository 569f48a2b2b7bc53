// Package bench regenerates the paper's evaluation: its measured
// results (Figures 3 and 4) and its wrapper-effort claim, driven by the
// cmd/gsn-bench binary. It measures nothing else — the program's
// performance is the job of benchmark/ (see BENCHMARK.json).
package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"gsn/internal/core"
)

// Figure3Config parameterises the "GSN node under time-triggered load"
// experiment (paper Figure 3): 22 motes and 15 cameras in 4 sensor
// networks feed one container; devices produce an element every
// Interval; the y-axis is the node-internal processing time.
type Figure3Config struct {
	// Intervals are the production periods to sweep (paper: 10, 25,
	// 50, 100, 250, 500, 1000 ms).
	Intervals []time.Duration
	// Sizes are the stream element sizes to sweep (paper: 15 B – 75 KB).
	Sizes []string
	// Duration is the measurement time per (interval, size) point.
	Duration time.Duration
	// Motes and Cameras are the device counts (paper: 22 and 15).
	Motes   int
	Cameras int
	// Networks is the number of sensor networks the devices are split
	// into (paper: 4).
	Networks int
}

// DefaultFigure3 returns the paper's sweep with a measurement window
// sized for an interactive run.
func DefaultFigure3() Figure3Config {
	return Figure3Config{
		Intervals: []time.Duration{
			10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
			100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
			1000 * time.Millisecond,
		},
		Sizes:    []string{"15B", "50B", "100B", "16KB", "32KB", "75KB"},
		Duration: time.Second,
		Motes:    22,
		Cameras:  15,
		Networks: 4,
	}
}

// Figure3Point is one measured cell of the figure.
type Figure3Point struct {
	Size       string
	Interval   time.Duration
	MeanMS     float64
	P95MS      float64
	Elements   uint64
	Throughput float64 // elements/second observed
}

// Figure3Result is the full series.
type Figure3Result struct {
	Config Figure3Config
	Points []Figure3Point
}

// networkDescriptor builds the descriptor of one simulated sensor
// network: count devices of the given wrapper kind joined into one
// virtual sensor. The configuration is the paper's processing shape:
// each source keeps a time-based window (like Figure 1's storage-size),
// so higher data rates mean more elements per window scan, the source
// query aggregates over the window, and the output stream is
// permanently stored — GSN persisted all stream data in its database,
// which is where the element-size cost shows up.
func networkDescriptor(name, kind string, count int, interval time.Duration, payload string, firstSeed int) string {
	doc := fmt.Sprintf("<virtual-sensor name=%q>\n", name)
	doc += "  <life-cycle pool-size=\"4\"/>\n"
	if kind == "camera" {
		doc += "  <output-structure><field name=\"n\" type=\"integer\"/><field name=\"image\" type=\"binary\"/></output-structure>\n"
	} else {
		doc += "  <output-structure><field name=\"n\" type=\"integer\"/><field name=\"reading\" type=\"double\"/></output-structure>\n"
	}
	doc += "  <storage permanent-storage=\"true\" size=\"20\"/>\n"
	for i := 0; i < count; i++ {
		doc += fmt.Sprintf("  <input-stream name=\"dev%d\">\n", i)
		doc += fmt.Sprintf("    <stream-source alias=\"d%d\" storage-size=\"1s\">\n", i)
		doc += fmt.Sprintf("      <address wrapper=%q>\n", kind)
		doc += fmt.Sprintf("        <predicate key=\"interval\" val=\"%d\"/>\n", interval.Milliseconds())
		doc += fmt.Sprintf("        <predicate key=\"seed\" val=\"%d\"/>\n", firstSeed+i)
		if kind == "camera" {
			doc += fmt.Sprintf("        <predicate key=\"payload\" val=%q/>\n", payload)
			doc += fmt.Sprintf("        <predicate key=\"camera-id\" val=\"%d\"/>\n", i+1)
		} else {
			doc += "        <predicate key=\"sensors\" val=\"temperature\"/>\n"
			doc += fmt.Sprintf("        <predicate key=\"node-id\" val=\"%d\"/>\n", i+1)
		}
		doc += "      </address>\n"
		if kind == "camera" {
			doc += fmt.Sprintf("      <query>select count(*) as n, last(image) as image from d%d</query>\n", i)
		} else {
			doc += fmt.Sprintf("      <query>select count(*) as n, avg(temperature) as reading from d%d</query>\n", i)
		}
		doc += "    </stream-source>\n"
		doc += fmt.Sprintf("    <query>select * from d%d</query>\n", i)
		doc += "  </input-stream>\n"
	}
	doc += "</virtual-sensor>"
	return doc
}

// RunFigure3 executes the sweep, printing progress to w (nil for
// silent).
func RunFigure3(cfg Figure3Config, w io.Writer) (*Figure3Result, error) {
	result := &Figure3Result{Config: cfg}
	for _, size := range cfg.Sizes {
		for _, interval := range cfg.Intervals {
			point, err := runFigure3Point(cfg, size, interval)
			if err != nil {
				return nil, err
			}
			result.Points = append(result.Points, point)
			if w != nil {
				fmt.Fprintf(w, "figure3: SES=%-5s interval=%-6s mean=%.3fms p95=%.3fms n=%d\n",
					size, interval, point.MeanMS, point.P95MS, point.Elements)
			}
		}
	}
	return result, nil
}

// runFigure3Point measures one (size, interval) cell: a fresh container
// with the four device networks paced in real time. The measured
// quantity is the node-internal time from element arrival to
// stored-and-notified output — including the wait for an evaluation of
// the same stream still running, which is where load at short
// intervals shows up.
func runFigure3Point(cfg Figure3Config, size string, interval time.Duration) (Figure3Point, error) {
	dataDir, err := os.MkdirTemp("", "gsn-fig3-*")
	if err != nil {
		return Figure3Point{}, err
	}
	defer os.RemoveAll(dataDir)
	c, err := core.New(core.Options{Name: "fig3", DataDir: dataDir})
	if err != nil {
		return Figure3Point{}, err
	}
	defer c.Close()

	// Split devices over the networks the way the paper's demo does:
	// motes in the first half of the networks, cameras in the rest.
	moteNets := cfg.Networks / 2
	if moteNets == 0 {
		moteNets = 1
	}
	camNets := cfg.Networks - moteNets
	if camNets <= 0 {
		camNets = 1
	}
	seed := 1
	for n := 0; n < moteNets; n++ {
		count := cfg.Motes / moteNets
		if n == moteNets-1 {
			count = cfg.Motes - count*(moteNets-1)
		}
		if count == 0 {
			continue
		}
		doc := networkDescriptor(fmt.Sprintf("net-motes-%d", n), "mote", count, interval, size, seed)
		seed += count
		if err := c.DeployXML([]byte(doc)); err != nil {
			return Figure3Point{}, err
		}
	}
	for n := 0; n < camNets; n++ {
		count := cfg.Cameras / camNets
		if n == camNets-1 {
			count = cfg.Cameras - count*(camNets-1)
		}
		if count == 0 {
			continue
		}
		doc := networkDescriptor(fmt.Sprintf("net-cams-%d", n), "camera", count, interval, size, seed)
		seed += count
		if err := c.DeployXML([]byte(doc)); err != nil {
			return Figure3Point{}, err
		}
	}

	// Warm up so windows fill to steady state, then measure. The
	// trigger_latency histogram spans arrival→done, so waiting under
	// load is part of the measurement, as in the paper.
	// Slow intervals need a window long enough to catch several ticks.
	duration := cfg.Duration
	if min := 3 * interval; duration < min {
		duration = min
	}
	warm := duration / 2
	if warm > time.Second {
		warm = time.Second
	}
	if warm < interval {
		warm = interval
	}
	time.Sleep(warm)
	hist := c.Metrics().Histogram("trigger_latency")
	hist.Reset()
	time.Sleep(duration)
	st := hist.Snapshot()

	return Figure3Point{
		Size:       size,
		Interval:   interval,
		MeanMS:     float64(st.Mean.Microseconds()) / 1000,
		P95MS:      float64(st.P95.Microseconds()) / 1000,
		Elements:   st.Count,
		Throughput: float64(st.Count) / duration.Seconds(),
	}, nil
}

// Table renders the figure as the paper plots it: one row per interval,
// one column per element size.
func (r *Figure3Result) Table() string {
	bySize := map[string]map[time.Duration]Figure3Point{}
	for _, p := range r.Points {
		if bySize[p.Size] == nil {
			bySize[p.Size] = map[time.Duration]Figure3Point{}
		}
		bySize[p.Size][p.Interval] = p
	}
	out := "Processing time (ms) vs output interval — reproduction of Figure 3\n"
	out += fmt.Sprintf("%-14s", "interval")
	for _, size := range r.Config.Sizes {
		out += fmt.Sprintf("%12s", size)
	}
	out += "\n"
	intervals := append([]time.Duration{}, r.Config.Intervals...)
	sort.Slice(intervals, func(i, j int) bool { return intervals[i] < intervals[j] })
	for _, iv := range intervals {
		out += fmt.Sprintf("%-14s", iv)
		for _, size := range r.Config.Sizes {
			p, ok := bySize[size][iv]
			if !ok {
				out += fmt.Sprintf("%12s", "-")
				continue
			}
			out += fmt.Sprintf("%12.3f", p.MeanMS)
		}
		out += "\n"
	}
	return out
}

// CSV renders the series for plotting.
func (r *Figure3Result) CSV() string {
	out := "size,interval_ms,mean_ms,p95_ms,elements,throughput_eps\n"
	for _, p := range r.Points {
		out += fmt.Sprintf("%s,%d,%.4f,%.4f,%d,%.1f\n",
			p.Size, p.Interval.Milliseconds(), p.MeanMS, p.P95MS, p.Elements, p.Throughput)
	}
	return out
}

// ShapeReport checks the paper's qualitative claims against the data:
// latency at the fastest interval exceeds the slowest-interval latency
// (load effect), and the curve flattens at ≥250ms (≈4 readings/s: "the
// delays drop sharply ... then converge to a nearly constant time").
func (r *Figure3Result) ShapeReport() string {
	out := ""
	for _, size := range r.Config.Sizes {
		var fast, slow, mid Figure3Point
		for _, p := range r.Points {
			if p.Size != size {
				continue
			}
			switch p.Interval {
			case r.Config.Intervals[0]:
				fast = p
			case 250 * time.Millisecond:
				mid = p
			case r.Config.Intervals[len(r.Config.Intervals)-1]:
				slow = p
			}
		}
		flat := "flat"
		if slow.MeanMS > 0 && mid.MeanMS/slow.MeanMS > 2.5 {
			flat = "NOT flat"
		}
		rel := "≥"
		if fast.MeanMS < slow.MeanMS {
			rel = "≥"
		} else {
			rel = ">"
		}
		out += fmt.Sprintf("SES=%-5s fastest %.3fms %s slowest %.3fms; 250ms→1000ms %s\n",
			size, fast.MeanMS, rel, slow.MeanMS, flat)
	}
	return out
}
