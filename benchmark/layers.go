package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gsn/internal/core"
	"gsn/internal/notify"
	"gsn/internal/quality"
	"gsn/internal/sqlengine"
	"gsn/internal/sqlparser"
	"gsn/internal/storage"
	"gsn/internal/stream"
	"gsn/internal/wrappers"
)

// seamCounts is the tracer's seam counters at one instant.
type seamCounts struct {
	fsWrites, fsSyncs, fsReads, fsBytes, fsBusyNs, rtCount, rtBytes int64
}

func (t *tracer) counts() seamCounts {
	return seamCounts{
		fsWrites: t.fsWrites.Load(), fsSyncs: t.fsSyncs.Load(), fsReads: t.fsReads.Load(),
		fsBytes: t.fsBytes.Load(), fsBusyNs: t.fsBusyNs.Load(),
		rtCount: t.rtCount.Load(), rtBytes: t.rtBytes.Load(),
	}
}

// countBefore counts the window's operations that were due before the
// traced slice began — the divisor of the untraced half of
// trace.overhead_ratio.
func (r *run) countBefore(feeds []*feedRun, clients []*queryClient) int64 {
	if r.tr == nil {
		return 0
	}
	var n int64
	for _, fr := range feeds {
		for _, e := range fr.emits {
			if e.due >= r.winStart && e.due < r.traceFrom {
				n++
			}
		}
	}
	for _, qc := range clients {
		for _, a := range qc.answers {
			if a.t0 >= r.winStart && a.t0 < r.traceFrom {
				n++
			}
		}
	}
	return n
}

// storageMetrics fills what the StorageFS seam and the program's
// history counters say about the window. rows and rowBytes describe
// what the workload stored in permanent tables during the window.
func (r *run) storageMetrics(m metrics, c *core.Container, rows, rowBytes int64) {
	reg := c.Metrics()
	hits, reads := reg.Counter("pool_hits").Value(), reg.Counter("pages_read").Value()
	if n := hits + reads; n > 0 {
		m.set("storage.pool_hit_ratio", float64(hits)/float64(n), int(n))
	}
	if hq := m["history_query_p50_ms"].Samples; hq > 0 {
		m.set("storage.pages_read_per_range_query", float64(reads)/float64(hq), hq)
	}
	if r.tr == nil {
		return
	}
	d := r.seamEnd
	b := r.seamStart
	if rows > 0 {
		m.set("storage.fs_writes_per_kelem", 1000*float64(d.fsWrites-b.fsWrites)/float64(rows), int(rows))
		m.set("storage.fs_syncs_per_kelem", 1000*float64(d.fsSyncs-b.fsSyncs)/float64(rows), int(rows))
	}
	if rowBytes > 0 {
		m.set("storage.fs_bytes_per_user_byte", float64(d.fsBytes-b.fsBytes)/float64(rowBytes), int(rows))
	}
	m.set("storage.fs_busy_share", float64(d.fsBusyNs-b.fsBusyNs)/float64(r.winEnd-r.winStart), int(d.fsWrites-b.fsWrites))
}

// webMetrics splits the client-observed query latency into time inside
// the web handler and everything around it.
func (r *run) webMetrics(m metrics, s *seams, clients []*queryClient) {
	if r.tr == nil {
		return
	}
	var ns []int64
	var bytes int64
	for _, h := range s.handlers {
		h.mu.Lock()
		ns = append(ns, h.queryNs...)
		bytes += h.bytes
		h.mu.Unlock()
	}
	if len(ns) == 0 {
		return
	}
	var client []int64
	for _, qc := range clients {
		for _, a := range qc.answers {
			client = append(client, a.t1-a.t0)
		}
	}
	handler := quantileOf(ns, 0.5)
	m.set("web.handler_ms_p50", handler/1e6, len(ns))
	m.set("web.http_overhead_ms_p50", (quantileOf(client, 0.5)-handler)/1e6, len(client))
	m.set("web.response_bytes_per_query", float64(bytes)/float64(len(ns)), len(ns))
}

// elementSpans turns the traced slice's logs into per-element spans:
//
//	element                        due → last-tier delivery (root)
//	  loadgen.lag                  due → emit call
//	  core.ingest                  the emit call (quality chain, window insert, enqueue)
//	  core.trigger_to_delivery     emit return → first-tier result at the subscriber
//	    storage.fs.*               seam spans of the sensor's table inside it
//	  core.tier_hop                first-tier → second-tier delivery
//
// logs maps a feed index to its first-tier log, its last-tier log (nil
// when the workload has one tier) and the table that owns its FS spans.
func (r *run) elementSpans(feeds []*feedRun, logs func(i int) (first, last *obsLog, owner string)) {
	total := 0
	for _, fr := range feeds {
		total += len(fr.emits)
	}
	stride := total*5/(traceCapacity/2) + 1
	for i, fr := range feeds {
		first, last, owner := logs(i)
		from1, from2 := 0, 0
		for n, e := range fr.emits {
			if e.due < r.traceFrom || e.due >= r.winEnd || n%stride != 0 {
				continue
			}
			t1, i1 := first.firstCovering(e.seq, from1)
			if i1 < 0 {
				continue
			}
			from1 = i1
			end := t1
			t2 := int64(0)
			if last != nil {
				var i2 int
				if t2, i2 = last.firstCovering(e.seq, from2); i2 < 0 {
					continue
				}
				from2 = i2
				end = max(t1, t2)
			}
			id := uint64(i)<<40 | uint64(e.seq)
			root := r.tr.put(span{Name: "element", Trace: id, Parent: -1, Start: e.due, End: end})
			r.tr.put(span{Name: "loadgen.lag", Trace: id, Parent: root, Start: e.due, End: e.start})
			r.tr.put(span{Name: "core.ingest", Trace: id, Parent: root, Start: e.start, End: e.end})
			// A result can be delivered before the emit call has returned.
			r.tr.put(span{Name: "core.trigger_to_delivery", Trace: id, Owner: owner, Parent: root, Start: e.end, End: max(t1, e.end)})
			if last != nil && t2 > t1 {
				r.tr.put(span{Name: "core.tier_hop", Trace: id, Parent: root, Start: t1, End: t2})
			}
		}
	}
}

// syncSecondTierXML is a second tier over first-tier sensor a1 alone, in
// the shape of the pipeline's second tier.
const syncSecondTierXML = `
<virtual-sensor name="b">
  <output-structure>
    <field name="hi" type="integer"/>
    <field name="m" type="integer"/>
    <field name="sn" type="integer"/>
  </output-structure>
  <storage size="50"/>
  <input-stream name="in">
    <stream-source alias="u" storage-size="10">
      <address wrapper="local"><predicate key="sensor" val="a1"/></address>
      <query>select max(hi) as hi, count(*) as m, sum(n) as sn from WRAPPER</query>
    </stream-source>
    <query>select * from u</query>
  </input-stream>
</virtual-sensor>`

// --- direct layer probes -------------------------------------------------

// timeN runs fn n times and returns the mean nanoseconds per call.
func timeN(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// layerProbes times direct calls into each layer's public functions on
// the workload's own inputs (the elements of its feeds, the statements
// of its descriptors). They run after the window, on an idle system, so
// each number is the layer's cost alone — the term the ledger multiplies
// by a count to explain a share of the end-to-end time.
func layerProbes(r *run, m metrics) {
	const n = 2000
	probeHub := newFeedHub(r.g)
	mote, camera := probeHub.feed("mote", false), probeHub.feed("camera", true)
	small := mote.element(1, 1)
	big := camera.element(1, 1)

	// wrappers: the built-in device simulators nothing in the workloads
	// pulls; predicted to move nothing.
	for _, p := range []struct{ metric, kind string }{
		{"wrappers.mote_produce_ns", "mote"}, {"wrappers.camera_produce_ns", "camera"},
	} {
		w, err := wrappers.New(p.kind, wrappers.Config{Name: "probe", Seed: r.cfg.seed})
		if err != nil {
			r.notes = append(r.notes, "probe "+p.kind+": "+err.Error())
			continue
		}
		prod := w.(wrappers.Producer)
		m.set(p.metric, timeN(n, func() { _, _ = prod.Produce() }), n)
	}

	// stream: the wire/WAL codec, small and 16 KB elements.
	for _, p := range []struct {
		suffix string
		e      stream.Element
		reps   int
	}{{"", small, n}, {"_16k", big, n / 10}} {
		var buf []byte
		m.set("stream.encode_ns_per_elem"+p.suffix, timeN(p.reps, func() { buf = stream.EncodeElement(buf[:0], p.e) }), p.reps)
		m.set("stream.encoded_bytes_per_elem"+p.suffix, float64(len(buf)), 1)
		schema := p.e.Schema()
		m.set("stream.decode_ns_per_elem"+p.suffix, timeN(p.reps, func() { _, _, _ = stream.DecodeElement(schema, buf) }), p.reps)
	}

	// quality: the chain a source's elements cross, wired as core wires it.
	sink := func(stream.Element) {}
	buffer := quality.NewDisconnectBuffer(16, sink)
	buffer.SetBatchSink(func([]stream.Element) {})
	repair := quality.NewRepairer(quality.RepairHoldLast, buffer.Offer)
	repair.SetBatchSink(buffer.OfferBatch)
	sampler := quality.NewSampler(1, r.cfg.seed, repair.Offer)
	sampler.SetBatchSink(repair.OfferBatch)
	m.set("quality.chain_ns_per_elem", timeN(n, func() { sampler.Offer(small) }), n)
	batch := make([]stream.Element, 64)
	for i := range batch {
		batch[i] = mote.element(int64(i+1), 1)
	}
	m.set("quality.chain_batch_ns_per_elem", timeN(n/16, func() {
		sampler.OfferBatch(append([]stream.Element(nil), batch...))
	})/64, n/16*64)

	storageProbes(r, m, mote, batch)
	engineProbes(r, m, mote)

	// core: the same first-tier descriptor and inputs through a
	// SyncProcessing container — the single-threaded baseline, where the
	// whole pipeline runs inline in the emit call — and the same again
	// with a second tier over a local edge, whose extra cost is what one
	// more tier takes.
	syncCost := func(tiers ...string) (float64, error) {
		hub := newFeedHub(r.g)
		reg := wrappers.Default().Clone()
		if err := hub.register(reg); err != nil {
			return 0, err
		}
		c, err := core.New(core.Options{Name: "sync-baseline", SyncProcessing: true, Registry: reg})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		for _, xml := range tiers {
			if err := c.DeployXML([]byte(xml)); err != nil {
				return 0, err
			}
		}
		f := hub.feed("f1", false)
		return timeN(n, func() { f.emitNext(1) }), nil
	}
	one, err := syncCost(firstTierXML(1))
	if err == nil {
		m.set("core.pulse_sync_ns_per_elem", one, n)
		var two float64
		if two, err = syncCost(firstTierXML(1), syncSecondTierXML); err == nil {
			m.set("core.tier_sync_ns_per_elem", two-one, n)
		}
	}
	if err != nil {
		r.notes = append(r.notes, "core probe: "+err.Error())
	}

	// notify: publish cost, and publish → Deliver lag through the
	// subscription queue.
	mgr := notify.NewManager(notify.Options{QueueSize: notifyQueue})
	var lag samples
	sent := make(chan time.Time, 1)
	mgr.Subscribe("probe", notify.FuncChannel{Fn: func(notify.Event) error {
		lag.add(time.Since(<-sent))
		return nil
	}})
	for i := 0; i < n/4; i++ {
		sent <- time.Now()
		mgr.Publish("probe", small)
		mgr.Flush(time.Second)
	}
	m.set("notify.delivery_lag_us_p50", lag.quantile(0.5)/1e3, lag.count())
	mgr.Close()
	mgr = notify.NewManager(notify.Options{QueueSize: notifyQueue})
	mgr.Subscribe("probe", notify.FuncChannel{Fn: func(notify.Event) error { return nil }})
	m.set("notify.publish_ns", timeN(n, func() { mgr.Publish("probe", small) }), n)
	mgr.Close()
}

// storageProbes times the storage layer's public calls on a scratch
// store inside the run's data directory.
func storageProbes(r *run, m metrics, mote *feed, batch []stream.Element) {
	const n = 2000
	dir := filepath.Join(r.cfg.outDir, fmt.Sprintf("data-%d", os.Getpid()), "probe-store")
	store, err := storage.NewStore(nil, dir)
	if err != nil {
		r.notes = append(r.notes, "storage probe: "+err.Error())
		return
	}
	defer store.Close()
	count := func(w int) stream.Window { return stream.Window{Kind: stream.CountWindow, Count: w} }

	// The source-window path: memory table, count-100.
	mem, err := store.CreateTable("mem", moteSchema, storage.TableOptions{Window: count(100)})
	if err != nil {
		r.notes = append(r.notes, "storage probe: "+err.Error())
		return
	}
	seq := int64(0)
	m.set("storage.insert_ns", timeN(n, func() { seq++; _ = mem.Insert(mote.element(seq, stream.Timestamp(seq))) }), n)
	m.set("storage.insert_batch_ns_per_elem", timeN(n/16, func() { _ = mem.InsertBatch(batch) })/64, n/16*64)
	m.set("storage.snapshot_ns", timeN(n/4, func() { _ = mem.Snapshot() }), n/4)

	// The output-table path: WAL with group commit, history tier.
	hist, err := store.CreateTable("hist", moteSchema, storage.TableOptions{
		Window: count(100), Permanent: true, Sync: storage.SyncInterval, History: true, CheckpointBytes: -1})
	if err != nil {
		r.notes = append(r.notes, "storage probe: "+err.Error())
		return
	}
	var flush, ckpt samples
	for round := 0; round < 8; round++ {
		for i := 0; i < 1500; i++ {
			seq++
			_ = hist.Insert(mote.element(seq, stream.Timestamp(seq)))
		}
		t0 := time.Now()
		_ = hist.Flush()
		flush.add(time.Since(t0))
		t0 = time.Now()
		_ = hist.Checkpoint()
		ckpt.add(time.Since(t0))
	}
	m.set("storage.flush_ns", flush.quantile(0.5), flush.count())
	m.set("storage.checkpoint_ms", ckpt.ms(0.5), ckpt.count())
	lo := stream.Timestamp(seq - 6000)
	var rows int
	perCall := timeN(20, func() {
		got, _ := hist.TimedRange(lo, lo+999)
		rows = len(got)
	})
	if rows > 0 {
		m.set("storage.timed_range_us_per_krow", perCall/1e3*1000/float64(rows), 20)
	}
}

// engineProbes times the SQL layers on the workloads' own statement
// shapes over a full count-100 window.
func engineProbes(r *run, m metrics, mote *feed) {
	const n = 2000
	const incSQL = "select count(*) as n, max(seq) as hi, sum(v) as sv, max(timed) as timed from WRAPPER"
	const boundSQL = incSQL + " where v >= 0"
	const interpSQL = incSQL + " where v >= (select min(v) from WRAPPER)"
	const groupedSQL = "select room, count(*) as n, sum(v) as sv from WRAPPER group by room"

	m.set("sqlparser.parse_ns_per_stmt", timeN(n, func() { _, _ = sqlparser.Parse(boundSQL) }), n)
	cols := sqlengine.ColumnsOfSchema(moteSchema)
	parse := func(sql string) *sqlparser.SelectStatement {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			panic(err) // the statements are constants of this file
		}
		return st
	}
	bound := parse(boundSQL)
	m.set("sqlengine.compile_ns_per_stmt", timeN(n, func() { _, _ = sqlengine.Compile(bound, cols, "WRAPPER") }), n)

	elems := make([]stream.Element, 100)
	for i := range elems {
		elems[i] = mote.element(int64(i+1), stream.Timestamp(i+1))
	}
	rel := sqlengine.RelationOfElements(moteSchema, elems)
	opts := sqlengine.Options{}
	plan, err := sqlengine.Compile(bound, cols, "WRAPPER")
	if err != nil {
		r.notes = append(r.notes, "engine probe: "+err.Error())
		return
	}
	m.set("sqlengine.exec_bound_ns", timeN(n, func() { _, _ = plan.Execute(rel.Rows, opts) }), n)
	interp := parse(interpSQL)
	cat := sqlengine.MapCatalog{"WRAPPER": rel}
	m.set("sqlengine.exec_interpreted_ns", timeN(n/4, func() { _, _ = sqlengine.Execute(interp, cat, opts) }), n/4)

	if inc, err := sqlengine.Compile(parse(incSQL), cols, "WRAPPER"); err == nil && inc.Incremental() != nil {
		am := sqlengine.NewAggMaintainer(inc.Incremental())
		for _, e := range elems {
			am.OnInsert(e)
		}
		i := 0
		m.set("sqlengine.inc_update_ns", timeN(n, func() {
			am.OnInsert(elems[i%100])
			am.OnEvict(elems[i%100])
			i++
		}), n)
	}
	grouped, err := sqlengine.Compile(parse(groupedSQL), cols, "WRAPPER")
	if err != nil {
		r.notes = append(r.notes, "engine probe: "+err.Error())
		return
	}
	if prog := grouped.IncrementalGrouped(); prog != nil {
		gm := sqlengine.NewGroupedAggMaintainer(prog)
		for _, e := range elems {
			gm.OnInsert(e)
		}
		i := 0
		m.set("sqlengine.grouped_inc_update_ns", timeN(n, func() {
			gm.OnInsert(elems[i%100])
			gm.OnEvict(elems[i%100])
			i++
		}), n)
	}
	if grouped.Distributable() {
		var part *sqlengine.PartialRollup
		m.set("sqlengine.partial_exec_ns", timeN(n/4, func() { part, _ = grouped.ExecutePartial(rel.Rows, opts) }), n/4)
		parts := []*sqlengine.PartialRollup{part, part, part}
		m.set("sqlengine.partial_merge_ns", timeN(n/4, func() { _, _ = grouped.MergePartials(parts, opts) }), n/4)
	}
}
