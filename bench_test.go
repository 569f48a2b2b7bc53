// Benchmarks regenerating the paper's evaluation as testing.B targets —
// one benchmark family per figure plus the ablations from DESIGN.md §5.
// The cmd/gsn-bench binary runs the full real-time paced sweeps; these
// benchmarks measure the per-element costs on the same code paths.
package gsn_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gsn"
	"gsn/internal/bench"
	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

// figure3Node builds the Figure 3 processing pipeline for one device at
// a given element size: time-window source, aggregate source query,
// windowed output.
func figure3Node(b *testing.B, ses string) *gsn.Node {
	b.Helper()
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench3", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { node.Close() })
	desc := fmt.Sprintf(`
<virtual-sensor name="net">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="image" type="binary"/>
  </output-structure>
  <storage size="20"/>
  <input-stream name="in">
    <stream-source alias="cam" storage-size="100">
      <address wrapper="camera">
        <predicate key="payload" val=%q/>
        <predicate key="seed" val="5"/>
      </address>
      <query>select count(*) as n, last(image) as image from WRAPPER</query>
    </stream-source>
    <query>select * from cam</query>
  </input-stream>
</virtual-sensor>`, ses)
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	// Fill the window to steady state before measuring.
	for i := 0; i < 100; i++ {
		node.Pulse()
	}
	return node
}

// BenchmarkFigure3 measures the per-element node-internal processing
// cost (arrival → stored + notified) for each stream element size on
// the paper's x-axis.
func BenchmarkFigure3(b *testing.B) {
	for _, ses := range []string{"15B", "50B", "100B", "16KB", "32KB", "75KB"} {
		b.Run("SES="+ses, func(b *testing.B) {
			node := figure3Node(b, ses)
			size, _ := parseSES(ses)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
		})
	}
}

func parseSES(s string) (int, error) {
	switch s {
	case "15B":
		return 15, nil
	case "50B":
		return 50, nil
	case "100B":
		return 100, nil
	case "16KB":
		return 16 << 10, nil
	case "32KB":
		return 32 << 10, nil
	case "75KB":
		return 75 << 10, nil
	}
	return 0, fmt.Errorf("unknown SES %s", s)
}

// BenchmarkFigure4 measures the total client-query evaluation cost per
// element arrival for increasing client counts (SES=32KB), the paper's
// Figure 4 series.
func BenchmarkFigure4(b *testing.B) {
	for _, clients := range []int{0, 100, 250, 500} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench4", SyncProcessing: true})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			desc := `
<virtual-sensor name="frames">
  <output-structure>
    <field name="frame" type="integer"/>
    <field name="sz" type="integer"/>
  </output-structure>
  <storage size="20"/>
  <input-stream name="in">
    <stream-source alias="cam" storage-size="1">
      <address wrapper="camera">
        <predicate key="payload" val="32KB"/>
        <predicate key="seed" val="7"/>
      </address>
      <query>select frame, length(image) as sz from WRAPPER</query>
    </stream-source>
    <query>select * from cam</query>
  </input-stream>
</virtual-sensor>`
			if err := node.DeployXML([]byte(desc)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < clients; i++ {
				sql := fmt.Sprintf(
					"select count(*), avg(sz) from frames where timed >= now() - %d and frame %% %d = %d and sz > %d",
					(time.Duration(i%1800)*time.Second + time.Second).Milliseconds(),
					2+i%5, i%(2+i%5), 1024*(1+i%32))
				if _, err := node.RegisterQuery("frames", sql, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				node.Pulse()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
		})
	}
}

// BenchmarkWrapperProduce isolates device simulation cost per platform,
// backing the §5 wrapper-effort discussion with a throughput number.
func BenchmarkWrapperProduce(b *testing.B) {
	for _, kind := range []string{"mote", "rfid", "timer"} {
		b.Run(kind, func(b *testing.B) {
			node, err := gsn.NewNode(gsn.NodeOptions{Name: "benchw", SyncProcessing: true})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			var query string
			switch kind {
			case "mote":
				query = "select temperature from WRAPPER"
			case "rfid":
				query = "select tag_id from WRAPPER"
			case "timer":
				query = "select tick from WRAPPER"
			}
			desc := fmt.Sprintf(`
<virtual-sensor name="w">
  <output-structure><field name="v" type="varchar"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper=%q><predicate key="seed" val="3"/><predicate key="presence" val="1"/></address>
      <query>%s</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, kind, query)
			if err := node.DeployXML([]byte(desc)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
		})
	}
}

// Ablation benchmarks (DESIGN.md §5).

func BenchmarkAblationJoinHash(b *testing.B) {
	left, right := bench.SyntheticRelations(500, 500, 1)
	cat := sqlengine.MapCatalog{"L": left, "R": right}
	stmt, err := sqlparser.Parse("select count(*) from l join r on l.k = r.k")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationJoinNestedLoop(b *testing.B) {
	left, right := bench.SyntheticRelations(500, 500, 1)
	cat := sqlengine.MapCatalog{"L": left, "R": right}
	stmt, err := sqlparser.Parse("select count(*) from l join r on l.k = r.k")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{DisableHashJoin: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPlanCacheOn(b *testing.B) {
	rel := sqlengine.NewRelation("v", "timed")
	for i := 0; i < 50; i++ {
		rel.AddRow(int64(i), int64(i*100))
	}
	cat := sqlengine.MapCatalog{"T": rel}
	sql := "select count(*), avg(v) from t where timed >= 100 and v % 3 = 1 and v > 5"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlengine.ExecuteSQL(sql, cat, sqlengine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPlanCacheOff(b *testing.B) {
	rel := sqlengine.NewRelation("v", "timed")
	for i := 0; i < 50; i++ {
		rel.AddRow(int64(i), int64(i*100))
	}
	cat := sqlengine.MapCatalog{"T": rel}
	sql := "select count(*), avg(v) from t where timed >= 100 and v % 3 = 1 and v > 5"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlengine.ParseNoCache(sql)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPoolSize(b *testing.B) {
	// Paper's pool-size knob: async trigger processing with 1 vs 8
	// workers under a window-scan load.
	for _, pool := range []int{1, 8} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			node, err := gsn.NewNode(gsn.NodeOptions{Name: "benchp"})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			desc := fmt.Sprintf(`
<virtual-sensor name="pooled">
  <life-cycle pool-size="%d"/>
  <output-structure><field name="n" type="integer"/></output-structure>
  <storage size="10"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="200">
      <address wrapper="random-walk"><predicate key="seed" val="2"/></address>
      <query>select count(*) as n from WRAPPER where value > 10</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, pool)
			if err := node.DeployXML([]byte(desc)); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				node.Pulse()
			}
			waitForOutputs(b, node, 1)
			before, _ := node.SensorStats("pooled")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Pulse()
			}
			// Wait until the pool drains so the timer covers real work.
			waitForOutputs(b, node, before.Triggers+uint64(b.N))
		})
	}
}

func waitForOutputs(b *testing.B, node *gsn.Node, want uint64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := node.SensorStats("pooled")
		if err != nil {
			b.Fatal(err)
		}
		// Every trigger is either evaluated (one output for this
		// query), shed by the full queue, or coalesced into a pending
		// evaluation.
		if st.Outputs+st.Dropped+st.Coalesced >= want {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("pool never drained: %+v (want %d)", st, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkIngest measures the write path across the batching ×
// durability matrix: per-element Insert vs 64-element InsertBatch, on a
// memory-only table and on permanent tables under each WAL sync policy.
// The seed path is per-element + SyncAlways (one write syscall per
// element); the headline comparison is batched + SyncInterval, the
// group-commit configuration.
func BenchmarkIngest(b *testing.B) {
	schema := stream.MustSchema(
		stream.Field{Name: "node_id", Type: stream.TypeInt},
		stream.Field{Name: "temperature", Type: stream.TypeFloat},
	)
	const batchSize = 64
	makeElems := func(b *testing.B, n int) []stream.Element {
		elems := make([]stream.Element, n)
		for i := range elems {
			e, err := stream.NewElement(schema, stream.Timestamp(i+1), int64(i%32), float64(i%97)+0.5)
			if err != nil {
				b.Fatal(err)
			}
			elems[i] = e
		}
		return elems
	}
	newTable := func(b *testing.B, sync string) *storage.Table {
		b.Helper()
		opts := storage.TableOptions{
			Window: stream.Window{Kind: stream.CountWindow, Count: 1000},
		}
		if sync != "memory" {
			policy, ok := storage.ParseSyncPolicy(sync)
			if !ok {
				b.Fatalf("bad policy %q", sync)
			}
			opts.Permanent = true
			opts.Sync = policy
		}
		store, err := storage.NewStore(stream.NewManualClock(0), b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { store.Close() })
		table, err := store.CreateTable("ingest", schema, opts)
		if err != nil {
			b.Fatal(err)
		}
		return table
	}

	for _, sync := range []string{"memory", "always", "interval", "none"} {
		b.Run("unbatched/sync="+sync, func(b *testing.B) {
			table := newTable(b, sync)
			elems := makeElems(b, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := table.Insert(elems[0].WithTimestamp(stream.Timestamp(i + 1))); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("batched/sync="+sync, func(b *testing.B) {
			table := newTable(b, sync)
			elems := makeElems(b, batchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batchSize {
				n := batchSize
				if done+n > b.N {
					n = b.N - done
				}
				if err := table.InsertBatch(elems[:n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClientQueries is the acceptance benchmark of the query
// repository rebuild: 1,000 registered client queries (mixed
// unique/duplicate SQL, the Figure 4 load shape) evaluated per trigger
// against a count-1000 output window. The compiled/shared/parallel
// sweep must beat the seed's serial interpreted strategy by >=5x.
func BenchmarkClientQueries(b *testing.B) {
	const window = 1000
	const clients = 1000
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench-cq", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	desc := fmt.Sprintf(`
<virtual-sensor name="q">
  <output-structure>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="timer"/>
      <query>select tick %% 101 as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, window)
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		node.Pulse()
	}
	duplicates := []string{
		"select count(*), avg(value) from q",
		"select count(*) as n, min(value) as lo, max(value) as hi from q",
		"select count(*), avg(value) from q where value > 40",
		"select value from q where value > 95",
		"select count(*) from q where value between 20 and 60",
	}
	for i := 0; i < clients; i++ {
		sql := duplicates[i%len(duplicates)]
		if i%2 == 1 {
			// Unique half: the upper bound exceeds the value domain, so
			// it only makes the SQL text (the evaluation group) unique.
			sql = fmt.Sprintf("select count(*), avg(value) from q where value > %d and value <= %d",
				i%97, 101+i)
		}
		if _, err := node.RegisterQuery("q", sql, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	c := node.Container()
	repo := c.QueryRepositoryRef()
	cat := c.Catalog()
	opts := sqlengine.Options{Clock: c.Clock()}

	b.Run("serial-interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateForSerial("q", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
	})
	b.Run("compiled-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateFor("q", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
	})
}

// BenchmarkFigure4Sweep is the registered-query sweep in the paper's
// Figure 4 shape, small enough to profile: 25 evaluation groups, each
// "~3 filtering predicates" with a seeded history size, modulus and
// threshold, swept over a count-50 output window on the system clock.
// Every group is a bound program whose history conjunct
// `timed >= now() - H` is row-independent; ns/row is the sweep's time
// per group per window row.
func BenchmarkFigure4Sweep(b *testing.B) {
	const window, groups = 50, 25
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench-f4", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	desc := fmt.Sprintf(`
<virtual-sensor name="f4">
  <output-structure>
    <field name="hi" type="integer"/>
    <field name="m" type="integer"/>
    <field name="sn" type="integer"/>
  </output-structure>
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="timer"/>
      <query>select tick as hi, tick %% 8 as m, tick %% 101 as sn from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, window)
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		node.Pulse()
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < groups; i++ {
		mod := 2 + i%5
		sql := fmt.Sprintf("select count(*) as c, avg(sn) as a from f4 where timed >= now() - %d and hi %% %d = %d and m > %d",
			1000+rng.Intn(29000)+i, mod, rng.Intn(mod), i%8)
		if _, err := node.RegisterQuery("f4", sql, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	c := node.Container()
	repo, cat, opts := c.QueryRepositoryRef(), c.Catalog(), sqlengine.Options{Clock: c.Clock()}
	if got := repo.GroupCount("f4"); got != groups {
		b.Fatalf("%d evaluation groups, want %d", got, groups)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := repo.EvaluateFor("f4", cat, opts); n != groups {
			b.Fatalf("evaluated %d of %d", n, groups)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(groups*window), "ns/row")
}

// BenchmarkClientQueriesGrouped extends the acceptance benchmark to
// grouped rollups (the PR 5 tentpole): 1,000 registered GROUP BY
// client queries (mixed unique/duplicate, ~100 live groups) against a
// count-1000 window with a round-robin room key. The compiled grouped
// bound-program tier plus the GroupedAggMaintainer must beat the
// serial interpreted strategy by >=5x.
func BenchmarkClientQueriesGrouped(b *testing.B) {
	const window = 1000
	const clients = 1000
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench-cqg", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	desc := fmt.Sprintf(`
<virtual-sensor name="g">
  <output-structure>
    <field name="room" type="integer"/>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="%d"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="timer"/>
      <query>select tick %% 100 as room, tick %% 101 as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, window)
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < window; i++ {
		node.Pulse()
	}
	duplicates := []string{
		"select room, count(*) as n, avg(value) as a from g group by room",
		"select room, min(value) as lo, max(value) as hi from g group by room",
		"select room, count(*) as n from g group by room having count(*) > 2",
		"select room, avg(value) as a from g where value > 50 group by room",
		"select room % 10 as shard, count(*) as n from g group by room % 10",
	}
	for i := 0; i < clients; i++ {
		sql := duplicates[i%len(duplicates)]
		if i%2 == 1 {
			// Unique half: the upper bound exceeds the value domain, so
			// it only makes the SQL text (the evaluation group) unique.
			sql = fmt.Sprintf("select room, count(*) as n from g where value > %d and value <= %d group by room",
				i%97, 101+i)
		}
		if _, err := node.RegisterQuery("g", sql, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	c := node.Container()
	repo := c.QueryRepositoryRef()
	cat := c.Catalog()
	opts := sqlengine.Options{Clock: c.Clock()}

	b.Run("serial-interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateForSerial("g", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
	})
	b.Run("compiled-shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := repo.EvaluateFor("g", cat, opts); n != clients {
				b.Fatalf("evaluated %d of %d", n, clients)
			}
		}
	})
}

// triggerPipelineTable builds a 1000-element count window for the
// trigger pipeline benchmark.
func triggerPipelineTable(b *testing.B) *storage.Table {
	b.Helper()
	schema := stream.MustSchema(stream.Field{Name: "temperature", Type: stream.TypeFloat})
	table, err := storage.NewTable("wrapper", schema,
		stream.Window{Kind: stream.CountWindow, Count: 1000}, stream.NewManualClock(0))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		e, err := stream.NewElement(schema, stream.Timestamp(i+1), float64(i%37)+0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := table.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	return table
}

const triggerPipelineQuery = "select count(*) as n, avg(temperature) as a, " +
	"min(temperature) as mn, max(temperature) as mx from wrapper"

// BenchmarkTriggerPipeline compares the three per-trigger source
// evaluation tiers on the Figure-3-style aggregate workload over a
// 1000-element count window:
//
//	snapshot-replan:    the seed path — copy the window (Snapshot),
//	                    materialise a relation, plan and execute the
//	                    statement from scratch every trigger.
//	zerocopy-compiled:  scan the table in place (ForEach) and run the
//	                    deploy-time compiled plan.
//	incremental:        read the maintained aggregates; O(1) in the
//	                    window size.
func BenchmarkTriggerPipeline(b *testing.B) {
	stmt, err := sqlparser.Parse(triggerPipelineQuery)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("snapshot-replan", func(b *testing.B) {
		table := triggerPipelineTable(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel := sqlengine.RelationOfElements(table.Schema(), table.Snapshot())
			cat := sqlengine.MapCatalog{"WRAPPER": rel}
			if _, err := sqlengine.Execute(stmt, cat, sqlengine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("zerocopy-compiled", func(b *testing.B) {
		table := triggerPipelineTable(b)
		plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(table.Schema()), "wrapper")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.ExecuteSource(table, sqlengine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("incremental", func(b *testing.B) {
		table := triggerPipelineTable(b)
		plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(table.Schema()), "wrapper")
		if err != nil {
			b.Fatal(err)
		}
		specs := plan.Incremental()
		if specs == nil {
			b.Fatal("benchmark query should be incrementally maintainable")
		}
		m := sqlengine.NewAggMaintainer(specs)
		table.SetObserver(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var rel *sqlengine.Relation
			table.WithLock(func() { rel = m.Result() })
			if rel == nil || len(rel.Rows) != 1 {
				b.Fatal("maintainer produced no result")
			}
		}
	})
}

// BenchmarkTriggerPipelineEndToEnd measures the full arrival→output
// path through a container for the same workload, with the pipeline
// tiers picked automatically by the deploy-time compiler.
func BenchmarkTriggerPipelineEndToEnd(b *testing.B) {
	node, err := gsn.NewNode(gsn.NodeOptions{Name: "bench-tp", SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	desc := `
<virtual-sensor name="agg">
  <output-structure>
    <field name="n" type="integer"/>
    <field name="a" type="double"/>
  </output-structure>
  <storage size="1"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="1000">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/>
        <predicate key="seed" val="9"/>
      </address>
      <query>select count(*) as n, avg(temperature) as a from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`
	if err := node.DeployXML([]byte(desc)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		node.Pulse()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Pulse()
	}
}
