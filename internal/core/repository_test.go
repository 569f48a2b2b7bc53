package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsn/internal/metrics"
	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// deployVals builds a sensor whose output window holds integer source
// values verbatim — the substrate for the client-query tests. Integer
// inputs keep float aggregation exact, so the grouped/incremental and
// serial interpreted paths must agree to the last byte even across
// window eviction.
func deployVals(t testing.TB, c *Container, rows int) {
	t.Helper()
	deployValsAs(t, c, "vals", rows, 37)
}

// deployValsAs is deployVals for a sensor called name whose i-th value
// is (i*step)%101.
func deployValsAs(t testing.TB, c *Container, name string, rows, step int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".csv")
	data := "v\n"
	for i := 0; i < rows; i++ {
		data += fmt.Sprintf("%d\n", (i*step)%101)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	desc := fmt.Sprintf(`
<virtual-sensor name=%q>
  <output-structure>
    <field name="value" type="integer"/>
  </output-structure>
  <storage size="100" />
  <input-stream name="in">
    <stream-source alias="s" storage-size="1">
      <address wrapper="csv">
        <predicate key="file" val=%q/>
        <predicate key="types" val="integer"/>
      </address>
      <query>select v as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`, name, path)
	if err := c.DeployXML([]byte(desc)); err != nil {
		t.Fatalf("DeployXML: %v", err)
	}
}

// clientQueryShapes covers every evaluation tier the repository
// serves: incremental aggregates (ungrouped and grouped), compiled
// plans with WHERE / GROUP BY / HAVING / ORDER BY / LIMIT, and
// full-engine fallbacks (subquery).
var clientQueryShapes = []string{
	"select count(*), avg(value) from vals",                                                   // incremental
	"select count(*) as n, min(value) as lo, max(value) as hi from vals",                      // incremental
	"select value from vals where value > 5",                                                  // compiled filter
	"select value, timed from vals where value <= 20 order by value desc",                     // compiled sort
	"select avg(value) from vals where timed > 0",                                             // incremental agg+filter
	"select value from vals order by timed desc limit 3",                                      // compiled limit
	"select value from vals where value > (select avg(value) from vals)",                      // fallback subquery
	"select count(*) from vals where value between -1000 and 1000",                            // incremental between
	"select value * 2 as dbl from vals where value >= -1e12 limit 5",                          // compiled expr
	"select distinct value from vals where value > -1000000 order by value",                   // compiled distinct
	"select value, count(*) as n from vals group by value",                                    // incremental grouped
	"select value % 7 as bucket, count(*) as n, avg(value) as a from vals group by value % 7", // compiled grouped (expr key)
	"select value, count(*) as n from vals group by value having count(*) > 1",                // compiled grouped + HAVING
	"select value, count(*) as n from vals group by value having count(*) > 1000",             // HAVING filters all groups
	"select value, count(*) as n from vals where value > 100000 group by value",               // incremental, empty group set
	"select value % 5 as b, max(value) as m from vals group by value % 5 order by m desc, b",  // grouped + ORDER BY
	// Row-independent subtrees (hoisted by the bound program) in every
	// clause that binds expressions; the container's clock stands still
	// between the sweep and the shadow evaluation.
	"select count(*) as c, avg(value) as a from vals where timed >= now() - 1000000 and value % 3 = 1 and value > 2 * 3",           // Figure 4 shape
	"select value + (10 - 3) as a, now() - timed as age, upper('x' || 'y') as s from vals",                                         // projection
	"select value % (1 + 2) as k, 6 * 7 as c, count(*) as n from vals group by value % (1 + 2), 6 * 7",                             // GROUP BY key
	"select value, count(*) as n from vals group by value having count(*) >= 3 - 1 and now() > 0",                                  // HAVING
	"select value from vals where value > 90 order by value * (2 - 3), now()",                                                      // ORDER BY
	"select case when value > 40 + 10 then 'hi' || '!' else lower('LO') end as c, case 1 + 1 when 2 then value end as d from vals", // CASE arms
	"select value from vals where value > -1 or now() - 'x' > 0",                                                                   // error behind a short-circuit, never raised
}

// TestGroupedEvaluationMatchesSerial is the equivalence property test:
// for every bench query shape the compiled/shared/grouped path must
// deliver results byte-identical to the seed's per-query interpreted
// path, trigger after trigger, while the window slides.
func TestGroupedEvaluationMatchesSerial(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 200)

	type captured struct {
		mu   sync.Mutex
		last map[int]string
	}
	grouped := &captured{last: make(map[int]string)}
	serial := &captured{last: make(map[int]string)}
	record := func(cap *captured, i int) func(*sqlengine.Relation) {
		return func(rel *sqlengine.Relation) {
			cap.mu.Lock()
			cap.last[i] = rel.String()
			cap.mu.Unlock()
		}
	}

	// Two subscribers per shape through the repository under test (so
	// shapes dedupe into one group with fan-out) …
	repo := c.QueryRepositoryRef()
	for i, sql := range clientQueryShapes {
		if _, err := c.RegisterQuery("vals", sql, 1, record(grouped, i)); err != nil {
			t.Fatalf("register %q: %v", sql, err)
		}
		if _, err := c.RegisterQuery("vals", sql, 1, nil); err != nil {
			t.Fatalf("register dup %q: %v", sql, err)
		}
	}
	// … and a shadow repository evaluated with the seed's serial
	// interpreted strategy.
	shadow := NewQueryRepository(nil)
	for i, sql := range clientQueryShapes {
		if _, err := shadow.Register("vals", sql, 1, record(serial, i), nil); err != nil {
			t.Fatalf("shadow register %q: %v", sql, err)
		}
	}

	for pulse := 0; pulse < 150; pulse++ {
		c.Pulse() // the repository sweep runs inside the pulse
		shadow.EvaluateForSerial("vals", c.Catalog(), sqlengine.Options{Clock: c.Clock()})
		for i, sql := range clientQueryShapes {
			g, s := grouped.last[i], serial.last[i]
			if g != s {
				t.Fatalf("pulse %d, shape %q:\ngrouped:\n%s\nserial:\n%s", pulse, sql, g, s)
			}
			// The same text asked ad hoc — compiled by the result cache,
			// and served from it on the repeat — agrees as well.
			if pulse%10 == 0 {
				for _, pass := range []string{"ad hoc", "ad hoc, repeated"} {
					rel, err := c.Query(sql)
					if err != nil || rel.String() != s {
						t.Fatalf("pulse %d, shape %q, %s: %v\n%v\nserial:\n%s", pulse, sql, pass, err, rel, s)
					}
				}
			}
		}
	}

	if got := repo.GroupCount("vals"); got != len(clientQueryShapes) {
		t.Errorf("GroupCount = %d, want %d (duplicates must dedupe)", got, len(clientQueryShapes))
	}
	if repo.Count() != 2*len(clientQueryShapes) {
		t.Errorf("Count = %d, want %d", repo.Count(), 2*len(clientQueryShapes))
	}
	for _, st := range repo.Stats() {
		if st.Errors != 0 {
			t.Errorf("query %q: %d errors", st.SQL, st.Errors)
		}
		if st.Evaluations != 150 {
			t.Errorf("query %q: %d evaluations, want 150", st.SQL, st.Evaluations)
		}
	}
}

// TestFigure4GroupsMatchSerial is the equivalence property on the
// paper's Figure 4 load, `timed >= now() - H and v % k = r and v > f`,
// on a clock that advances between triggers, so the history bound cuts
// into the 100-row window and moves on every read. Half the groups are
// sampled, so their reads skip arrivals that come and go in between;
// one group joins a full window halfway; the clock once steps back.
// Every result delivered must be the serial interpreter's at that
// trigger. Until the clock steps back every Figure 4 group is answered
// by its maintainer; after, rows older than the bound sit behind
// younger ones until they leave, and those reads run the plan.
func TestFigure4GroupsMatchSerial(t *testing.T) {
	c := testContainer(t)
	clock := c.Clock().(*stream.ManualClock)
	deployVals(t, c, 400)
	var sqls []string
	for i, h := range []int{30, 90, 200, 450, 900} {
		k := 2 + i%4
		sqls = append(sqls, fmt.Sprintf("select count(*) as c, avg(value) as a from vals where timed >= now() - %d and value %% %d = %d and value > %d", h, k, i%k, 10*i),
			fmt.Sprintf("select value, count(*) as c, max(timed) as hi from vals where value > %d and now() - %d < timed group by value having count(*) > 1", 5*i, h))
	}
	late := "select count(*) as c, sum(value) as s, min(timed) as lo from vals where timed > now() - 250 and value % 2 = 1"
	sqls = append(sqls, late)
	type delivered struct {
		pulse int
		rel   string
	}
	got := make([]atomic.Value, len(sqls))
	want := make([]string, len(sqls))
	pulse := 0
	shadow := NewQueryRepository(nil)
	register := func(i int) {
		t.Helper()
		sampling := 1.0
		if i%2 == 1 {
			sampling = 0.4
		}
		if _, err := c.RegisterQuery("vals", sqls[i], sampling, func(rel *sqlengine.Relation) {
			got[i].Store(delivered{pulse, rel.String()})
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := shadow.Register("vals", sqls[i], 1, func(rel *sqlengine.Relation) { want[i] = rel.String() }, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sqls[:len(sqls)-1] {
		register(i)
	}
	compiled := c.Metrics().Counter("client_query_compiled")
	before := compiled.Value()
	for ; pulse < 300; pulse++ {
		switch {
		case pulse == 150:
			register(len(sqls) - 1) // onto a full window
		case pulse == 220:
			if n := compiled.Value() - before; n != 0 {
				t.Errorf("%d Figure 4 evaluations ran the compiled plan, want every one maintained", n)
			}
			clock.Set(clock.Now() - 400)
		}
		clock.Advance(time.Duration(1+pulse%13) * time.Millisecond)
		c.Pulse()
		shadow.EvaluateForSerial("vals", c.Catalog(), c.engineOpts())
		for i, sql := range sqls {
			d, ok := got[i].Load().(delivered)
			if !ok || d.pulse != pulse {
				continue // not registered yet, or not sampled this trigger
			}
			if d.rel != want[i] {
				t.Fatalf("pulse %d, %s:\nmaintained:\n%s\nserial:\n%s", pulse, sql, d.rel, want[i])
			}
		}
	}
	for _, st := range c.QueryRepositoryRef().Stats() {
		if st.Errors != 0 || st.Evaluations == 0 {
			t.Errorf("%s: %d evaluations, %d errors", st.SQL, st.Evaluations, st.Errors)
		}
	}
}

// TestRepositoryConcurrentRegisterUnregister races Register/Unregister
// against sweeps and the trigger pipeline (run with -race). The sweep
// goroutines keep going until every mutator has finished, so overlap
// is guaranteed regardless of scheduling.
func TestRepositoryConcurrentRegisterUnregister(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 2000)
	for i := 0; i < 50; i++ {
		c.Pulse()
	}
	repo := c.QueryRepositoryRef()

	var mutators, sweepers sync.WaitGroup
	var mutatorsDone atomic.Bool
	var delivered atomic.Int64
	// One persistent always-sampled subscriber guarantees a delivery on
	// every sweep regardless of how the mutators schedule.
	keepID, err := c.RegisterQuery("vals", "select count(*) from vals", 1,
		func(*sqlengine.Relation) { delivered.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		mutators.Add(1)
		go func(seed int64) {
			defer mutators.Done()
			rng := rand.New(rand.NewSource(seed))
			ids := make([]int64, 0, 32)
			for op := 0; op < 400; op++ {
				if len(ids) < 16 || rng.Intn(2) == 0 {
					sql := clientQueryShapes[rng.Intn(len(clientQueryShapes))]
					id, err := c.RegisterQuery("vals", sql, 0.5+rng.Float64()/2,
						func(*sqlengine.Relation) { delivered.Add(1) })
					if err != nil {
						t.Error(err)
						return
					}
					ids = append(ids, id)
				} else {
					i := rng.Intn(len(ids))
					if err := repo.Unregister(ids[i]); err != nil {
						t.Error(err)
						return
					}
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
			for _, id := range ids {
				if err := repo.Unregister(id); err != nil {
					t.Error(err)
				}
			}
		}(int64(w + 1))
	}
	sweepers.Add(1)
	go func() {
		defer sweepers.Done()
		for i := 0; i < 30 || !mutatorsDone.Load(); i++ {
			c.Pulse() // inline trigger + repository sweep
		}
	}()
	sweepers.Add(1)
	go func() {
		defer sweepers.Done()
		for i := 0; i < 30 || !mutatorsDone.Load(); i++ {
			repo.EvaluateFor("vals", c.Catalog(), sqlengine.Options{Clock: c.Clock()})
			repo.Stats()
		}
	}()
	mutators.Wait()
	mutatorsDone.Store(true)
	sweepers.Wait()

	if err := repo.Unregister(keepID); err != nil {
		t.Fatal(err)
	}
	if repo.Count() != 0 {
		t.Errorf("Count = %d after all workers unregistered", repo.Count())
	}
	if delivered.Load() == 0 {
		t.Error("no callback ever fired under the race")
	}
}

// TestFilteredMaintainerRace registers and unregisters filtered
// aggregate queries on a sensor while arrivals write its output window
// and sweeps read the maintainers on the producing goroutine (run with
// -race): each registration replays the window into its own maintainer
// under the table lock while arrivals reach the others. Once all
// settles, every maintained answer is the interpreter's.
func TestFilteredMaintainerRace(t *testing.T) {
	c, err := New(Options{Name: "race", Clock: stream.NewManualClock(1_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deployVals(t, c, 400)
	if _, err := c.RegisterQuery("vals",
		"select count(*) as n, sum(value) as s, min(value) as lo from vals where value % 3 = 1", 1, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var pulsed atomic.Bool
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			c.Pulse()
		}
		pulsed.Store(true)
	}()
	go func() { // until the arrivals stop, and at least 200 times
		defer wg.Done()
		var ids []int64
		for i := 0; i < 200 || !pulsed.Load(); i++ {
			sql := fmt.Sprintf("select value, count(*) as n, max(value) as hi from vals "+
				"where value > %d group by value", i%17*5)
			if i%2 == 1 {
				sql = fmt.Sprintf("select count(*) as n, avg(value) as a from vals where value between %d and 80", i%13)
			}
			id, err := c.RegisterQuery("vals", sql, 1, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if ids = append(ids, id); len(ids) > 4 {
				if err := c.UnregisterQuery(ids[0]); err != nil {
					t.Error(err)
					return
				}
				ids = ids[1:]
			}
		}
	}()
	wg.Wait()
	vs, _ := c.Sensor("vals")
	waitFor(t, func() bool {
		st := vs.Stats()
		return st.Outputs+st.Dropped+st.Coalesced+st.Errors >= st.Triggers
	})

	repo, opts := c.QueryRepositoryRef(), c.engineOpts()
	repo.mu.RLock()
	var groups []*queryGroup
	for _, g := range repo.bySensor[stream.CanonicalName("vals")].groups {
		groups = append(groups, g)
	}
	repo.mu.RUnlock()
	maintained := 0
	for _, g := range groups {
		if g.agg == nil {
			t.Errorf("%s: not maintained", g.sql)
			continue
		}
		maintained++
		var got *sqlengine.Relation
		vs.Output().ReadWindow(func(first uint64, live []stream.Element) { got = g.agg.Read(first, live, opts) })
		want, err := sqlengine.ExecuteSQL(g.sql, c.Catalog(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil || got.String() != want.String() {
			t.Errorf("%s:\nmaintained:\n%v\ninterpreter:\n%v", g.sql, got, want)
		}
	}
	if maintained < 5 {
		t.Errorf("%d maintained groups left, want 5: the stable one and the last four registered", maintained)
	}
	for _, st := range repo.Stats() {
		if st.Errors != 0 {
			t.Errorf("%s: %d errors", st.SQL, st.Errors)
		}
	}
}

// TestSweepRunsOnTheProducer: without SyncProcessing, a registered
// query is answered inside the evaluation its output came from, so by
// the time Pulse returns the callback has seen the pulse's output.
func TestSweepRunsOnTheProducer(t *testing.T) {
	c, err := New(Options{Name: "producer-sweep", Clock: stream.NewManualClock(1_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deployVals(t, c, 60)
	var seen atomic.Int64
	if _, err := c.RegisterQuery("vals", "select count(*) as n from vals", 1, func(rel *sqlengine.Relation) {
		seen.Store(rel.Rows[0][0].(int64))
	}); err != nil {
		t.Fatal(err)
	}
	vs, _ := c.Sensor("vals")
	for i := int64(1); i <= 50; i++ {
		vs.Pulse()
		if got := seen.Load(); got != i {
			t.Fatalf("pulse %d returned before the callback saw its output (last result counted %d rows)", i, got)
		}
	}
}

// TestUndeployWaitsForRegisteredQuerySweep: Undeploy waits for the
// registered-query sweep its sensor's evaluation runs, so no callback
// of the removed sensor runs after Undeploy returns.
func TestUndeployWaitsForRegisteredQuerySweep(t *testing.T) {
	c, err := New(Options{Name: "undeploy-sweep", Clock: stream.NewManualClock(1_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deployVals(t, c, 10)
	entered, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	var calls atomic.Int64
	if _, err := c.RegisterQuery("vals", "select count(*) from vals", 1, func(*sqlengine.Relation) {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
	}); err != nil {
		t.Fatal(err)
	}
	vs, _ := c.Sensor("vals")
	pulsed := make(chan struct{})
	go func() {
		defer close(pulsed)
		vs.Pulse()
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the callback never ran")
	}
	undeployed := make(chan error, 1)
	go func() { undeployed <- c.Undeploy("vals") }()
	select {
	case err := <-undeployed:
		t.Fatalf("Undeploy returned (err %v) while a callback of the sensor was still running", err)
	case <-time.After(200 * time.Millisecond):
	}
	releaseOnce()
	select {
	case err := <-undeployed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Undeploy did not return once the callback did")
	}
	<-pulsed
}

// TestConcurrentStreamsSweep: a sensor with two input streams, each fed
// from its own goroutine, sweeps its registered queries on both at
// once — a maintained, a compiled and an interpreted group. Under -race
// nothing may race or fail, and once the feeders are done each group's
// result must be the serial interpreter's over the final window.
func TestConcurrentStreamsSweep(t *testing.T) {
	c, err := New(Options{Name: "two-streams", Clock: stream.NewManualClock(1_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	streams := ""
	for k, name := range []string{"a", "b"} {
		path := filepath.Join(dir, name+".csv")
		data := "v\n"
		for i := 0; i < 101; i++ {
			data += fmt.Sprintf("%d\n", (i*(17+20*k))%101)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		streams += fmt.Sprintf(`
  <input-stream name=%q>
    <stream-source alias="s" storage-size="1">
      <address wrapper="csv">
        <predicate key="file" val=%q/>
        <predicate key="types" val="integer"/>
        <predicate key="loop" val="true"/>
      </address>
      <query>select v as value from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>`, name, path)
	}
	deploy(t, c, `<virtual-sensor name="pair">
  <output-structure><field name="value" type="integer"/></output-structure>
  <storage size="64"/>`+streams+`
</virtual-sensor>`)

	sqls := []string{
		"select count(*) as n, sum(value) as s, min(value) as lo from pair where value % 3 = 1",
		"select count(*) as n, max(value) as hi from pair where now() >= timed",
		"select count(*) as n from pair where value >= (select avg(value) from pair)",
	}
	var mu sync.Mutex
	last := make([]string, len(sqls))
	for i, sql := range sqls {
		if _, err := c.RegisterQuery("pair", sql, 1, func(rel *sqlengine.Relation) {
			s := rel.String()
			mu.Lock()
			last[i] = s
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	tiers := []string{"client_query_incremental", "client_query_compiled", "client_query_general"}
	before := make([]uint64, len(tiers))
	for i, name := range tiers {
		before[i] = c.Metrics().Counter(name).Value()
	}

	vs, _ := c.Sensor("pair")
	feed := func(k int) {
		src := vs.streams[k].sources[0]
		e, err := src.wrapper.(wrappers.Producer).Produce()
		if err != nil {
			t.Error(err)
			return
		}
		vs.ingress(src, e)
	}
	const arrivals = 1000
	var wg sync.WaitGroup
	for k := range vs.streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < arrivals; i++ {
				feed(k)
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool {
		st := vs.Stats()
		return st.Outputs+st.Dropped+st.Coalesced+st.Errors >= st.Triggers
	})
	// The two streams' sweeps are not ordered with each other, and
	// neither are their callbacks: one more arrival, once both feeders
	// are done, makes the last sweep known.
	feed(0)

	st := vs.Stats()
	if st.Errors != 0 || st.Dropped != 0 || st.Triggers != 2*arrivals+1 || st.Outputs+st.Coalesced != st.Triggers {
		t.Fatalf("stats = %+v", st)
	}
	for _, q := range c.QueryRepositoryRef().Stats() {
		if q.Errors != 0 || q.Evaluations == 0 {
			t.Errorf("%s: %d evaluations, %d errors", q.SQL, q.Evaluations, q.Errors)
		}
	}
	if n := c.Metrics().Counter("client_query_panics").Value(); n != 0 {
		t.Errorf("%d callback panics", n)
	}
	for i, name := range tiers {
		if c.Metrics().Counter(name).Value() == before[i] {
			t.Errorf("%s did not move: %s ran on another tier", name, sqls[i])
		}
	}

	shadow := NewQueryRepository(nil)
	want := make([]string, len(sqls))
	for i, sql := range sqls {
		if _, err := shadow.Register("pair", sql, 1, func(rel *sqlengine.Relation) { want[i] = rel.String() }, nil); err != nil {
			t.Fatal(err)
		}
	}
	shadow.EvaluateForSerial("pair", c.Catalog(), c.engineOpts())
	mu.Lock()
	defer mu.Unlock()
	for i, sql := range sqls {
		if last[i] != want[i] {
			t.Errorf("%s:\nlast result:\n%s\nserial over the final window:\n%s", sql, last[i], want[i])
		}
	}
}

// TestSweepOrderIsRegistrationOrder: a sweep serves groups, and a
// group's subscribers, in the order they registered, starting each
// sweep at another group — never in the order of the repository's maps,
// which changes from one process to the next and made how late a given
// subscriber is served a property of the run. Every sweep must be a
// rotation of the registration order, the starts must visit every group
// within a few times as many sweeps as there are groups, and a second
// repository given the same registrations must repeat the sequence.
func TestSweepOrderIsRegistrationOrder(t *testing.T) {
	const groups, sweeps = 7, 21
	run := func() [][]int {
		c := testContainer(t)
		deployVals(t, c, 60)
		for i := 0; i < 30; i++ {
			c.Pulse()
		}
		var order []int
		// Nine queries in seven groups, 7 and 8 repeating the texts of 0
		// and 1; the texts' own order is not the registration order.
		for i := 0; i < groups+2; i++ {
			sql := fmt.Sprintf("select count(*) from vals where value > %d", i%groups*3%groups)
			if _, err := c.RegisterQuery("vals", sql, 1, func(*sqlengine.Relation) { order = append(order, i) }); err != nil {
				t.Fatal(err)
			}
		}
		repo, cat, opts := c.QueryRepositoryRef(), c.Catalog(), sqlengine.Options{Clock: c.Clock()}
		var seen [][]int
		for s := 0; s < sweeps; s++ {
			order = nil
			if n := repo.EvaluateFor("vals", cat, opts); n != groups+2 {
				t.Fatalf("sweep evaluated %d queries, want %d", n, groups+2)
			}
			seen = append(seen, order)
		}
		return seen
	}
	registered := []int{0, 7, 1, 8, 2, 3, 4, 5, 6} // group by group, subscribers by ID
	starts := map[int]bool{}
	first := run()
	for s, order := range first {
		if order[0] >= groups {
			t.Fatalf("sweep %d starts inside a group: %v", s, order)
		}
		at := 0
		for registered[at] != order[0] {
			at++
		}
		for i, q := range order {
			if want := registered[(at+i)%len(registered)]; q != want {
				t.Fatalf("sweep %d served %v: not a rotation of the registration order %v", s, order, registered)
			}
		}
		starts[order[0]] = true
	}
	if len(starts) != groups {
		t.Errorf("%d sweeps started at %d of %d groups", sweeps, len(starts), groups)
	}
	if second := run(); fmt.Sprint(second) != fmt.Sprint(first) {
		t.Errorf("the same registrations were served in another order:\n%v\n%v", first, second)
	}
}

// TestSweepAllocationsIndependentOfSkippedGroups: a sweep loads its
// work list as one pointer and pays nothing for a group whose sampling
// admitted no subscriber this trigger, so its allocations are those of
// the groups it evaluates — the same with ten idle groups beside them
// as with five hundred.
func TestSweepAllocationsIndependentOfSkippedGroups(t *testing.T) {
	sweepAllocs := func(idle int) float64 {
		c := testContainer(t)
		deployVals(t, c, 60)
		for i := 0; i < 30; i++ {
			c.Pulse()
		}
		if _, err := c.RegisterQuery("vals", "select count(*) as n from vals where value > 3", 1, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < idle; i++ {
			// Admitted once in 10^12 triggers: never, here.
			sql := fmt.Sprintf("select value from vals where value > %d", i)
			if _, err := c.RegisterQuery("vals", sql, 1e-12, nil); err != nil {
				t.Fatal(err)
			}
		}
		repo, cat, opts := c.QueryRepositoryRef(), c.Catalog(), sqlengine.Options{Clock: c.Clock()}
		return testing.AllocsPerRun(50, func() {
			if n := repo.EvaluateFor("vals", cat, opts); n != 1 {
				t.Fatalf("sweep evaluated %d queries, want the one always-sampled query", n)
			}
		})
	}
	few, many := sweepAllocs(10), sweepAllocs(500)
	t.Logf("allocations per sweep: %.0f beside 10 skipped groups, %.0f beside 500", few, many)
	if many > few+1 {
		t.Errorf("a sweep allocates %.0f times beside 10 skipped groups and %.0f beside 500", few, many)
	}
}

// TestPanickingCallbackIsolated: one bad subscriber must not take down
// the sweep or starve other groups.
func TestPanickingCallbackIsolated(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 30)
	if _, err := c.RegisterQuery("vals", "select value from vals", 1,
		func(*sqlengine.Relation) { panic("bad subscriber") }); err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	if _, err := c.RegisterQuery("vals", "select count(*) from vals", 1,
		func(*sqlengine.Relation) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Pulse()
	}
	if delivered.Load() != 5 {
		t.Errorf("healthy subscriber delivered %d of 5", delivered.Load())
	}
	if got := c.Metrics().Counter("client_query_panics").Value(); got != 5 {
		t.Errorf("client_query_panics = %d, want 5", got)
	}
}

// TestSamplingDeterministicAndUniform pins the lock-free sampler: the
// draw sequence is deterministic per query and lands near the target
// rate.
func TestSamplingDeterministicAndUniform(t *testing.T) {
	q := &ClientQuery{SamplingRate: 0.25, seed: splitmix64(99)}
	hits := 0
	for i := 0; i < 4000; i++ {
		if q.sample() {
			hits++
		}
	}
	if hits < 850 || hits > 1150 {
		t.Errorf("sampling 0.25 over 4000 draws admitted %d", hits)
	}
	q2 := &ClientQuery{SamplingRate: 0.25, seed: splitmix64(99)}
	for i := 0; i < 4000; i++ {
		q2.sample()
	}
	if q.draws.Load() != q2.draws.Load() {
		t.Error("draw sequences diverged for identical seeds")
	}
}

// TestUnregisterSensorDropsMaintainedGroups: undeploy must drop every
// group, the maintained ones included, and the output table must keep
// taking inserts with nothing attached to it.
func TestUnregisterSensorDropsMaintainedGroups(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 50)
	for i := 0; i < 3; i++ {
		if _, err := c.RegisterQuery("vals", "select count(*), avg(value) from vals", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RegisterQuery("vals", "select count(*) from vals", 1, nil); err != nil {
		t.Fatal(err)
	}
	c.Pulse()
	if n := c.QueryRepositoryRef().UnregisterSensor("vals"); n != 4 {
		t.Fatalf("UnregisterSensor dropped %d, want 4", n)
	}
	if c.QueryRepositoryRef().Count() != 0 {
		t.Error("queries survived UnregisterSensor")
	}
	c.Pulse()
	if n := c.QueryRepositoryRef().EvaluateFor("vals", c.Catalog(), c.engineOpts()); n != 0 {
		t.Errorf("a sweep after UnregisterSensor evaluated %d queries", n)
	}
}

// TestAggregateGroupUsesMaintainer confirms the O(1) tier actually
// serves aggregate-only client queries (the counter moves), and that
// its results track the window exactly.
func TestAggregateGroupUsesMaintainer(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 50)
	var last atomic.Value
	if _, err := c.RegisterQuery("vals", "select count(*) as n from vals", 1,
		func(rel *sqlengine.Relation) { last.Store(rel.Rows[0][0]) }); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Counter("client_query_incremental").Value()
	for i := 1; i <= 20; i++ {
		c.Pulse()
		if got := last.Load(); got != int64(i) {
			t.Fatalf("after %d pulses count = %v", i, got)
		}
	}
	if c.Metrics().Counter("client_query_incremental").Value() != before+20 {
		t.Errorf("incremental tier served %d of 20 evaluations",
			c.Metrics().Counter("client_query_incremental").Value()-before)
	}
}

// TestRegisteredQueryReadsOtherSensors: a registered query is the same
// statement as its ad-hoc spelling, so a subquery in it may name any
// stored stream, not only the sensor it is registered on. A statement
// that does not bind is not compiled; it runs on the interpreter over
// the container's whole catalog — registered ≡ ad hoc, pulse after
// pulse, and counted on the tier that ran it.
func TestRegisteredQueryReadsOtherSensors(t *testing.T) {
	c := testContainer(t)
	deployValsAs(t, c, "aa", 60, 37)
	deployValsAs(t, c, "bb", 60, 53)
	aa, _ := c.Sensor("aa")
	bb, _ := c.Sensor("bb")

	const sql = "select value from aa where value > (select avg(value) from bb)"
	var last atomic.Value
	if _, err := c.RegisterQuery("aa", sql, 1, func(rel *sqlengine.Relation) { last.Store(rel.String()) }); err != nil {
		t.Fatal(err)
	}
	compiled := c.Metrics().Counter("client_query_compiled").Value()
	general := c.Metrics().Counter("client_query_general").Value()
	const pulses = 10
	sawRows := false
	for i := 1; i <= pulses; i++ {
		// bb first: aa's sweep then reads the bb window the ad-hoc
		// statement below reads.
		bb.Pulse()
		aa.Pulse()
		want, err := c.Query(sql)
		if err != nil {
			t.Fatalf("pulse %d: ad hoc: %v", i, err)
		}
		got, _ := last.Load().(string)
		if got != want.String() {
			t.Fatalf("pulse %d: registered:\n%s\nad hoc:\n%s", i, got, want)
		}
		sawRows = sawRows || len(want.Rows) > 0
	}
	if !sawRows {
		t.Fatal("the statement never selected a row: the comparison is vacuous")
	}
	if st := c.QueryRepositoryRef().Stats()[0]; st.Evaluations != pulses || st.Errors != 0 {
		t.Errorf("%d evaluations, %d errors; want %d and 0", st.Evaluations, st.Errors, pulses)
	}
	if got := c.Metrics().Counter("client_query_general").Value() - general; got != pulses {
		t.Errorf("client_query_general moved by %d, want %d", got, pulses)
	}
	if got := c.Metrics().Counter("client_query_compiled").Value() - compiled; got != 0 {
		t.Errorf("client_query_compiled moved by %d for a statement the interpreter ran", got)
	}
}

// TestTierCountersNameTheEvaluatorThatRan: on each of the three drivers
// — source queries, registered queries, ad-hoc reads — a statement is
// counted *_compiled only when a bound program ran it and *_general only
// when the interpreter did. The "bound" source bounds TIMED from above
// by the clock (`now() >= timed`), a NOW() no frontier expresses, which
// keeps it off the maintainer.
func TestTierCountersNameTheEvaluatorThatRan(t *testing.T) {
	c := testContainer(t)
	deploy(t, c, pipelineDescriptor("bound",
		"select count(temperature) as n, avg(temperature) as a from wrapper where now() >= timed"))
	deploy(t, c, pipelineDescriptor("interp",
		"select count(temperature) as n, avg(temperature) as a from wrapper where temperature >= (select min(temperature) from wrapper)"))
	const boundSQL = "select n from bound where n > 0"
	const interpSQL = "select n from interp where n >= (select min(n) from interp)"
	for sensor, sql := range map[string]string{"bound": boundSQL, "interp": interpSQL} {
		if _, err := c.RegisterQuery(sensor, sql, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	counters := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, driver := range []string{"source_eval", "client_query", "adhoc_query"} {
			for _, tier := range []string{"_compiled", "_general"} {
				out[driver+tier] = c.Metrics().Counter(driver + tier).Value()
			}
		}
		return out
	}

	// One sensor at a time, so every movement has one cause.
	for _, step := range []struct{ sensor, sql, moves, still string }{
		{"bound", boundSQL, "_compiled", "_general"},
		{"interp", interpSQL, "_general", "_compiled"},
	} {
		vs, _ := c.Sensor(step.sensor)
		// Whichever evaluator serves the source, its output layout is
		// static, so the stream query over it runs bound.
		if vs.streams[0].plan == nil {
			t.Errorf("%s: the stream query did not compile", step.sensor)
		}
		before := counters()
		const pulses = 5
		for i := 0; i < pulses; i++ {
			vs.Pulse()
			if _, err := c.Query(step.sql); err != nil { // a new output row: a cache miss
				t.Fatal(err)
			}
		}
		after := counters()
		for _, driver := range []string{"source_eval", "client_query", "adhoc_query"} {
			if got := after[driver+step.moves] - before[driver+step.moves]; got != pulses {
				t.Errorf("%s: %s%s moved by %d, want %d", step.sensor, driver, step.moves, got, pulses)
			}
			if got := after[driver+step.still] - before[driver+step.still]; got != 0 {
				t.Errorf("%s: %s%s moved by %d, want 0", step.sensor, driver, step.still, got)
			}
		}
	}
}

// TestRegistrationReplaysOnlyTheNewMaintainer: registering a query on a
// full window costs no maintainer anything; the new group's first read
// admits the window into its maintainer alone — O(window), whatever the
// number of maintained groups already there — while the others admit
// only the arrival, and unregistering one costs nothing. Every result,
// before and after, is the interpreter's.
func TestRegistrationReplaysOnlyTheNewMaintainer(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 300)
	sqls := []string{
		"select count(*) as n, avg(value) as a from vals where value > 20 and value <= 70",
		"select value, count(*) as n from vals where value % 2 = 0 group by value",
		"select max(value) as hi, min(value) as lo from vals where value < 50",
	}
	got := make([]atomic.Value, len(sqls))
	want := make([]atomic.Value, len(sqls))
	live := make([]bool, len(sqls))
	ids := make([]int64, len(sqls))
	// The shadow repository evaluates the live statements on the
	// interpreter, each pulse.
	var shadow *QueryRepository
	reshadow := func() {
		t.Helper()
		shadow = NewQueryRepository(nil)
		for i, sql := range sqls {
			if !live[i] {
				continue
			}
			if _, err := shadow.Register("vals", sql, 1, func(rel *sqlengine.Relation) { want[i].Store(rel.String()) }, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	register := func(i int) {
		t.Helper()
		var err error
		if ids[i], err = c.RegisterQuery("vals", sqls[i], 1, func(rel *sqlengine.Relation) { got[i].Store(rel.String()) }); err != nil {
			t.Fatal(err)
		}
		live[i] = true
		reshadow()
	}
	pulse := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			c.Pulse()
			shadow.EvaluateForSerial("vals", c.Catalog(), c.engineOpts())
			for i, sql := range sqls {
				if g, w := got[i].Load(), want[i].Load(); live[i] && g != w {
					t.Fatalf("%s:\nmaintained:\n%v\ninterpreter:\n%v", sql, g, w)
				}
			}
		}
	}
	repo := c.QueryRepositoryRef()
	maintainer := func(i int) *sqlengine.AggMaintainer {
		t.Helper()
		repo.mu.RLock()
		defer repo.mu.RUnlock()
		g := repo.bySensor[stream.CanonicalName("vals")].groups[sqls[i]]
		if g == nil || g.agg == nil {
			t.Fatalf("%s: not maintained", sqls[i])
		}
		return g.agg
	}

	register(0)
	pulse(150) // the 100-row output window is full
	const window = 100
	first := maintainer(0)
	for i := 1; i < len(sqls); i++ {
		before := first.Inserts()
		register(i)
		if n := first.Inserts() - before; n != 0 {
			t.Errorf("registering %q replayed %d inserts into the first maintainer, want 0", sqls[i], n)
		}
		if n := maintainer(i).Inserts(); n != 0 {
			t.Errorf("%q: its maintainer examined %d rows on registration, want 0", sqls[i], n)
		}
		pulse(1)
		if n := first.Inserts() - before; n != 1 {
			t.Errorf("the pulse after registering %q: the first maintainer examined %d rows, want the arrival", sqls[i], n)
		}
		if n := maintainer(i).Inserts(); n != window {
			t.Errorf("%q: its maintainer's first read examined %d rows, want the window's %d", sqls[i], n, window)
		}
	}
	pulse(20)

	kept := []*sqlengine.AggMaintainer{first, maintainer(2)}
	before := []uint64{kept[0].Inserts(), kept[1].Inserts()}
	if err := c.UnregisterQuery(ids[1]); err != nil {
		t.Fatal(err)
	}
	live[1] = false
	reshadow()
	for i, m := range kept {
		if n := m.Inserts() - before[i]; n != 0 {
			t.Errorf("an unregistration replayed %d inserts into a remaining maintainer", n)
		}
	}
	pulse(20)
}

// TestGroupedAggregateGroupUsesMaintainer confirms grouped rollup
// client queries are served by the O(output) grouped incremental tier
// (the counter moves) and track the sliding window exactly, group
// appearance and disappearance included.
func TestGroupedAggregateGroupUsesMaintainer(t *testing.T) {
	c := testContainer(t)
	deployVals(t, c, 200) // values cycle (i*37)%101 over a count-100 window
	var last atomic.Value
	if _, err := c.RegisterQuery("vals", "select value, count(*) as n from vals group by value", 1,
		func(rel *sqlengine.Relation) { last.Store(rel.String()) }); err != nil {
		t.Fatal(err)
	}
	before := c.Metrics().Counter("client_query_incremental").Value()
	shadow := NewQueryRepository(nil)
	var want atomic.Value
	if _, err := shadow.Register("vals", "select value, count(*) as n from vals group by value", 1,
		func(rel *sqlengine.Relation) { want.Store(rel.String()) }, nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 150; i++ {
		c.Pulse()
		shadow.EvaluateForSerial("vals", c.Catalog(), sqlengine.Options{Clock: c.Clock()})
		if g, s := last.Load(), want.Load(); g != s {
			t.Fatalf("pulse %d:\ngrouped incremental:\n%v\nserial:\n%v", i, g, s)
		}
	}
	if got := c.Metrics().Counter("client_query_incremental").Value() - before; got != 150 {
		t.Errorf("grouped incremental tier served %d of 150 evaluations", got)
	}
}

// TestRepositoryMaintainerResync: after enough evicted float inputs
// the maintainer requests a rebuild, and the next sweep performs it on
// the client-query path (counter moves, results stay identical to the
// interpreted execution).
func TestRepositoryMaintainerResync(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "k", Type: stream.TypeInt},
		stream.Field{Name: "f", Type: stream.TypeFloat},
	)
	table, err := storage.NewTable("t", schema,
		stream.Window{Kind: stream.CountWindow, Count: 8}, stream.NewManualClock(1))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	repo := NewQueryRepository(reg)
	const sql = "select k, avg(f) as a from t group by k"
	var got atomic.Value
	if _, err := repo.Register("t", sql, 1, func(rel *sqlengine.Relation) {
		got.Store(rel.String())
	}, table); err != nil {
		t.Fatal(err)
	}

	// Push past the float-drift resync bound (65536 evicted float inputs)
	// on a tiny window, reading after every insert — a maintainer takes
	// out only the rows it saw arrive — until a sweep resyncs; that
	// sweep's result is rebuilt from the live window, exactly.
	opts := sqlengine.Options{Clock: stream.NewManualClock(1)}
	cat := sqlengine.MapCatalog{}
	for i := 0; reg.Counter("client_query_resyncs").Value() == 0; i++ {
		if i == 70_000 {
			t.Fatal("client-query sweep did not resync a drift-bound maintainer")
		}
		e, err := stream.NewElement(schema, stream.Timestamp(i+1), int64(i%3), float64(i)/7)
		if err != nil {
			t.Fatal(err)
		}
		if err := table.Insert(e); err != nil {
			t.Fatal(err)
		}
		if n := repo.EvaluateFor("t", cat, opts); n != 1 {
			t.Fatalf("evaluated %d of 1", n)
		}
	}
	want, err := sqlengine.ExecuteSQL(sql, sqlengine.MapCatalog{"T": sqlengine.RelationOfSource(table)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Load(); g != want.String() {
		t.Errorf("post-resync result diverged:\nmaintained:\n%v\ninterpreted:\n%s", g, want)
	}
	if reg.Counter("client_query_incremental").Value() == 0 {
		t.Error("grouped rollup was not served by the incremental tier")
	}
}

// TestFloatGroupKeysStayCompiled: float group keys are excluded from
// the grouped incremental tier (distinct representations like -0.0 and
// +0.0 compare equal, so the maintainer's captured key values could
// diverge byte-wise from a window rescan after eviction); integer keys
// qualify.
func TestFloatGroupKeysStayCompiled(t *testing.T) {
	schema := stream.MustSchema(
		stream.Field{Name: "fk", Type: stream.TypeFloat},
		stream.Field{Name: "ik", Type: stream.TypeInt},
	)
	compile := func(sql string) *sqlengine.Plan {
		t.Helper()
		stmt, err := sqlengine.ParseCached(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sqlengine.Compile(stmt, sqlengine.ColumnsOfSchema(schema), "t")
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	if m := newIncMaintainer(compile("select fk, count(*) as n from t group by fk"), schema); m != nil {
		t.Error("float group key must stay on the compiled tier")
	}
	if m := newIncMaintainer(compile("select ik, fk, count(*) as n from t group by ik, fk"), schema); m != nil {
		t.Error("mixed keys with a float column must stay on the compiled tier")
	}
	if m := newIncMaintainer(compile("select ik, avg(fk) as a from t group by ik"), schema); m == nil {
		t.Error("integer group key (float only as aggregate input) should qualify")
	}
	if m := newIncMaintainer(compile("select ik, timed, count(*) as n from t group by ik, timed"), schema); m == nil {
		t.Error("TIMED group key is an int and should qualify")
	}
}

func BenchmarkRepositorySweep(b *testing.B) {
	// Micro-benchmark kept beside the tests: 1000 mixed queries on a
	// 100-element window, grouped vs serial.
	c, err := New(Options{Name: "bench-repo", Clock: stream.NewManualClock(1), SyncProcessing: true})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	deployVals(b, c, 200)
	for i := 0; i < 100; i++ {
		c.Pulse()
	}
	for i := 0; i < 1000; i++ {
		sql := clientQueryShapes[i%len(clientQueryShapes)]
		if i%2 == 1 {
			sql = fmt.Sprintf("select count(*) from vals where value > %d", i)
		}
		if _, err := c.RegisterQuery("vals", sql, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	cat := c.Catalog()
	opts := sqlengine.Options{Clock: c.Clock()}
	repo := c.QueryRepositoryRef()
	b.Run("grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repo.EvaluateFor("vals", cat, opts)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			repo.EvaluateForSerial("vals", cat, opts)
		}
	})
}
