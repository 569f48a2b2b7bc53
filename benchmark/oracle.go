package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"gsn/internal/core"
	"gsn/internal/stream"
)

// The reference computations. Windowed aggregates over a feed are
// recomputed in closed form from the seeded value tables; everything
// computed over a sensor's output is recomputed from the log of that
// sensor's outputs, each of which was itself checked against the
// generated inputs. (Which outputs exist is the one thing the inputs do
// not determine: the asynchronous trigger pipeline coalesces arrivals,
// so the benchmark takes the set of outputs from what its own lossless
// subscriber saw and checks every value in it.)

// checkFeedWindow checks count(*), max(seq) and sum(v) of a count-w
// window over a feed whose newest element is seq hi.
func checkFeedWindow(f *feed, w int, c, hi, sv int64) string {
	wantC := min(hi, int64(w))
	wantSV := f.sumV(hi-wantC, hi)
	if c != wantC || sv != wantSV {
		return fmt.Sprintf("(count=%d, sum=%d) at hi=%d, want (%d, %d)", c, sv, hi, wantC, wantSV)
	}
	return ""
}

// checkLogAnswer checks a (count, max(mark), sum(a)) answer over the
// count-w window of a logged output table.
func checkLogAnswer(l *obsLog, w int, rows [][]any) string {
	v, msg := oneRow(rows, 3)
	if msg != "" {
		return msg
	}
	if v[0] == 0 && v[1] == 0 {
		return "" // the table was still empty
	}
	return l.window(v[1], w, v[0], v[2])
}

// historyStmt builds a TIMED-range statement over a history table whose
// outputs l logs: spanMs wide, ending backMs before the newest TIMED the
// subscriber has seen (at least 1 ms before it: TIMED never decreases
// along a table, so every row of a range that ends before the newest
// TIMED is already stored when the statement runs and the complete log
// answers it exactly).
func historyStmt(table, markCol string, l *obsLog, backMs, spanMs int64) (stmt, bool) {
	hi := l.latestTS.Load() - max(backMs, 1)
	return rangeStmt(table, markCol, l, hi-spanMs+1, hi)
}

// rangeStmt is the TIMED-range statement over [lo, hi].
func rangeStmt(table, markCol string, l *obsLog, lo, hi int64) (stmt, bool) {
	if lo <= 0 {
		return stmt{}, false
	}
	return stmt{
		kind: kindHistory,
		sql: fmt.Sprintf("select count(*) as c, sum(%s) as s from %s where timed between %d and %d",
			markCol, table, lo, hi),
		check: func(_ []string, rows [][]any) string {
			v, msg := oneRow(rows, 2)
			if msg != "" {
				return msg
			}
			n, sum := l.timedRange(lo, hi)
			if v[0] != n || v[1] != sum {
				return fmt.Sprintf("(count=%d, sum=%d), want (%d, %d)", v[0], v[1], n, sum)
			}
			return ""
		},
	}, true
}

// verifyReopened asks a reopened node for count(*) and sum(mark) of the
// newest lastRows rows the table ever acknowledged (0 = all of them) and
// compares with the log. A bounded lastRows keeps the cost of the check
// independent of how much the run ingested.
func verifyReopened(r *run, n *node, table, markCol string, l *obsLog, lastRows int) error {
	rows := l.rows
	lo := int64(0)
	if lastRows > 0 && len(rows) > lastRows {
		// Start at a TIMED boundary so the range holds whole milliseconds.
		lo = rows[len(rows)-lastRows].ts + 1
		i := sort.Search(len(rows), func(i int) bool { return rows[i].ts >= lo })
		rows = rows[i:]
	}
	var wantN, wantSum int64
	for _, o := range rows {
		wantN++
		wantSum += o.mark
	}
	sql := fmt.Sprintf("select count(*) as c, sum(%s) as s from %s where timed between %d and %d",
		markCol, table, lo, int64(stream.TimestampOf(time.Now().Add(time.Hour))))
	_, got, err := postQuery(r.http, n.url, sql)
	if err != nil {
		return err
	}
	v, msg := oneRow(got, 2)
	if msg != "" {
		return fmt.Errorf("%s after reopen: %s", table, msg)
	}
	if v[0] != wantN || v[1] != wantSum {
		return fmt.Errorf("%s after reopen: (count=%d, sum=%d), acknowledged (%d, %d)", table, v[0], v[1], wantN, wantSum)
	}
	return nil
}

// recoveryRows bounds the verified query that ends a timed recovery.
const recoveryRows = 5000

// timedRecovery times one reopen: from the call of reopen (the system
// was closed before) to the first verified query, one bounded range per
// table reaching through the replayed window into the history tier.
// Outside the timing, the first round also verifies everything each table
// ever acknowledged.
func (r *run) timedRecovery(reopen func() (*node, error), tables []string, logs []*obsLog) error {
	t0 := time.Now()
	n, err := reopen()
	if err != nil {
		return err
	}
	r.reopen.add(time.Since(t0))
	for i, table := range tables {
		if err := verifyReopened(r, n, table, "hi", logs[i], recoveryRows); err != nil {
			return err
		}
	}
	r.recovery.add(time.Since(t0))
	r.replayed = replayedRows(n.c)
	if r.recovery.count() > 1 {
		return nil // the first round verified everything; nothing has been written since
	}
	for i, table := range tables {
		if err := verifyReopened(r, n, table, "hi", logs[i], 0); err != nil {
			return err
		}
	}
	return nil
}

// tailRows is how many rows follow the checkpoint that settle takes
// before the recovery rounds: well under the automatic checkpoint's
// threshold, so no second checkpoint empties the tail again.
const tailRows = 512

// fixTail gives a history table a WAL tail of a known length, so that
// every run's reopen replays the same amount: a checkpoint empties the
// tail (at the end of the window it is anywhere between nothing and the
// automatic checkpoint's threshold), then emits go through the feed one
// at a time, each awaited, so each adds its outputs to the tail.
func (r *run) fixTail(c *core.Container, sensor string, fr *feedRun, rowsPerEmit int, covered func() bool) error {
	vs, ok := c.Sensor(sensor)
	if !ok {
		return fmt.Errorf("settling %s: not deployed", sensor)
	}
	if err := vs.Output().Checkpoint(); err != nil {
		return fmt.Errorf("settling %s: %w", sensor, err)
	}
	deadline := time.Now().Add(drainTimeout + 10*time.Second)
	for i := 0; i < tailRows/rowsPerEmit; i++ {
		if !fr.emit(r.stamp(r.now())) {
			return fmt.Errorf("settling %s: its wrapper is not running", sensor)
		}
		for !covered() {
			if time.Now().After(deadline) {
				return fmt.Errorf("settling %s: emit %d was never covered", sensor, i)
			}
			runtime.Gosched()
		}
	}
	return nil
}

// replayedRows sums the WAL rows the node's tables replayed when they
// were opened.
func replayedRows(c *core.Container) int64 {
	var n int64
	for _, vs := range c.Sensors() {
		n += int64(vs.Output().Stats().Replayed)
	}
	return n
}
