package bench

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gsn/internal/storage"
	"gsn/internal/stream"
)

// ScalingConfig parameterises the concurrent-producer experiment: the
// acceptance run for the table write path. It sweeps producer counts ×
// WAL sync policy and reports aggregate ingestion throughput and how
// many commits and fdatasyncs the producers shared, so group commit's
// payoff under contention (and the single-producer cost) is measured
// rather than asserted.
type ScalingConfig struct {
	// Producers is the swept list of concurrent writer goroutines.
	Producers []int
	// Elements is the number of elements each producer writes.
	Elements int
	// DurableElements is the per-producer count for the sync=durable
	// cells, which pay a real fdatasync (~100µs) per commit — the
	// classic group-commit regime, swept with far fewer elements.
	DurableElements int
	// Repeats runs each cell this many times and keeps the best, which
	// damps disk-sync and scheduler variance in the reported matrix.
	Repeats int
	// Window is the table's count-window retention.
	Window int
}

// DefaultScaling sizes the sweep so the sync=always cells reach
// group-commit steady state without making the run interminable (a
// lone always producer pays one write syscall per element, a lone
// durable producer one disk sync per element).
func DefaultScaling() ScalingConfig {
	return ScalingConfig{Producers: []int{1, 2, 4, 8}, Elements: 50_000,
		DurableElements: 2_000, Repeats: 3, Window: 1000}
}

// ScalingPoint is one measured cell.
type ScalingPoint struct {
	Producers int
	Sync      string  // "always", "interval", or "durable"
	Elems     int     // total elements written (all producers)
	PerSec    float64 // aggregate ingestion throughput
	Flushes   uint64  // WAL write syscalls issued
	Fsyncs    uint64  // WAL fdatasyncs issued
}

// FsyncsPerAppend is the share of a disk sync each insert paid: 1 when
// every producer syncs for itself, below 1 when a group commit's
// followers ride their leader's.
func (p ScalingPoint) FsyncsPerAppend() float64 { return float64(p.Fsyncs) / float64(p.Elems) }

// ScalingResult is the full matrix.
type ScalingResult struct {
	Points []ScalingPoint
}

// Table renders the matrix aligned for reading.
func (r *ScalingResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %12s %10s %18s\n", "producers", "sync", "elems/sec", "flushes", "fsyncs_per_append")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10d %-10s %12.0f %10d %18.3f\n", p.Producers, p.Sync, p.PerSec, p.Flushes, p.FsyncsPerAppend())
	}
	return b.String()
}

// CSV renders the matrix for external plotting.
func (r *ScalingResult) CSV() string {
	var b strings.Builder
	b.WriteString("producers,sync,elements,elems_per_sec,flushes,fsyncs_per_append\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%d,%s,%d,%.0f,%d,%.3f\n", p.Producers, p.Sync, p.Elems, p.PerSec, p.Flushes, p.FsyncsPerAppend())
	}
	return b.String()
}

// syncCountingFS counts the fdatasyncs issued on files opened for
// writing through it — measured at the storage.FS seam, from outside,
// so the storage layer carries no counter for the bench's benefit.
type syncCountingFS struct {
	storage.FS
	syncs *atomic.Uint64
}

func (c syncCountingFS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return syncCountingFile{f, c.syncs}, nil
}

type syncCountingFile struct {
	storage.File
	syncs *atomic.Uint64
}

func (f syncCountingFile) Sync() error {
	f.syncs.Add(1)
	return f.File.Sync()
}

// runScalingCell times one (producers, sync) cell against a fresh
// permanent table. Each producer Inserts its own pre-built element
// sequence (disjoint timestamp ranges, so the commit order is
// inspectable).
func runScalingCell(cfg ScalingConfig, schema *stream.Schema,
	perProducer [][]stream.Element, producers int, policy storage.SyncPolicy) (ScalingPoint, error) {
	point := ScalingPoint{Producers: producers, Sync: policy.String(),
		Elems: producers * len(perProducer[0])}

	dir, err := os.MkdirTemp("", "gsn-scaling-*")
	if err != nil {
		return point, err
	}
	defer os.RemoveAll(dir)

	store, err := storage.NewStore(stream.NewManualClock(0), dir)
	if err != nil {
		return point, err
	}
	defer store.Close()
	var syncs atomic.Uint64
	store.SetFS(syncCountingFS{storage.DefaultFS(), &syncs})
	table, err := store.CreateTable("scaling", schema, storage.TableOptions{
		Window:    stream.Window{Kind: stream.CountWindow, Count: cfg.Window},
		Permanent: true,
		Sync:      policy,
	})
	if err != nil {
		return point, err
	}
	syncsBefore := syncs.Load()

	var (
		wg       sync.WaitGroup
		start    = make(chan struct{})
		firstErr error
		errMu    sync.Mutex
	)
	for p := 0; p < producers; p++ {
		elems := perProducer[p]
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, e := range elems {
				if err := table.Insert(e); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	begin := time.Now()
	close(start)
	wg.Wait()
	if err := table.Flush(); err != nil { // durability barrier inside the timed region
		return point, err
	}
	elapsed := time.Since(begin)
	if firstErr != nil {
		return point, firstErr
	}

	st := table.Stats()
	if st.Inserted != uint64(point.Elems) {
		return point, fmt.Errorf("bench: inserted %d of %d", st.Inserted, point.Elems)
	}
	point.PerSec = float64(point.Elems) / elapsed.Seconds()
	point.Flushes = st.LogFlushes
	point.Fsyncs = syncs.Load() - syncsBefore
	return point, nil
}

// RunScaling executes the producers × sync matrix, streaming progress
// to w. Run it at GOMAXPROCS >= the largest producer count: producers
// need real goroutine interleaving to contend for the table lock and
// the group commit.
func RunScaling(cfg ScalingConfig, w io.Writer) (*ScalingResult, error) {
	if len(cfg.Producers) == 0 {
		cfg.Producers = DefaultScaling().Producers
	}
	if cfg.Elements <= 0 {
		cfg.Elements = DefaultScaling().Elements
	}
	if cfg.DurableElements <= 0 {
		cfg.DurableElements = DefaultScaling().DurableElements
	}
	if cfg.DurableElements > cfg.Elements {
		cfg.DurableElements = cfg.Elements
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = DefaultScaling().Repeats
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultScaling().Window
	}
	maxProducers := 0
	for _, p := range cfg.Producers {
		if p > maxProducers {
			maxProducers = p
		}
	}
	schema, err := stream.NewSchema(
		stream.Field{Name: "node_id", Type: stream.TypeInt},
		stream.Field{Name: "temperature", Type: stream.TypeFloat},
	)
	if err != nil {
		return nil, err
	}
	// Pre-build every producer's sequence once: disjoint timestamp
	// ranges per producer keep construction cost out of the timed
	// region and make per-producer FIFO visible in the merged window.
	perProducer := make([][]stream.Element, maxProducers)
	for p := range perProducer {
		elems := make([]stream.Element, cfg.Elements)
		for i := range elems {
			ts := stream.Timestamp(p*10_000_000 + i + 1)
			e, err := stream.NewElement(schema, ts, int64(p), float64(i%97)+0.5)
			if err != nil {
				return nil, err
			}
			elems[i] = e
		}
		perProducer[p] = elems
	}

	// The durable cells reuse a prefix of each producer's sequence.
	durable := make([][]stream.Element, maxProducers)
	for p := range durable {
		durable[p] = perProducer[p][:cfg.DurableElements]
	}

	res := &ScalingResult{}
	for _, producers := range cfg.Producers {
		for _, policy := range []storage.SyncPolicy{storage.SyncAlways, storage.SyncInterval, storage.SyncDurable} {
			elems := perProducer
			if policy == storage.SyncDurable {
				elems = durable
			}
			var best ScalingPoint
			for rep := 0; rep < cfg.Repeats; rep++ {
				got, err := runScalingCell(cfg, schema, elems, producers, policy)
				if err != nil {
					return nil, err
				}
				if rep == 0 || got.PerSec > best.PerSec {
					best = got
				}
			}
			fmt.Fprintf(w, "  producers=%d sync=%-8s %12.0f elems/sec %6.3f fsyncs/append\n",
				best.Producers, best.Sync, best.PerSec, best.FsyncsPerAppend())
			res.Points = append(res.Points, best)
		}
	}
	return res, nil
}
