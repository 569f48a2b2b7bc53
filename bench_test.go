// Benchmarks regenerating the paper's evaluation as testing.B targets —
// one benchmark family per figure plus the wrapper produce cost. The
// cmd/gsn-bench binary runs the full real-time paced sweeps; these
// benchmarks measure the per-element costs on the same code paths.
// Performance of the program itself is gated by benchmark/ (see
// BENCHMARK.json), not here.
package gsn_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gsn"
	"gsn/internal/sqlengine"
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
	repo, opts := c.QueryRepositoryRef(), sqlengine.Options{Clock: c.Clock()}
	if got := repo.GroupCount("f4"); got != groups {
		b.Fatalf("%d evaluation groups, want %d", got, groups)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := repo.EvaluateFor("f4", opts); n != groups {
			b.Fatalf("evaluated %d of %d", n, groups)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(groups*window), "ns/row")
}
