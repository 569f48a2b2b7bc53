// Command docs-check keeps the documentation honest:
//
//   - Markdown link check: every relative link in README.md,
//     ROADMAP.md, CHANGES.md and docs/*.md must resolve to a file or
//     directory in the repository (external http(s)/mailto links and
//     pure #anchors are skipped).
//   - Dialect smoke: every ```sql fenced block in docs/sql-dialect.md
//     is executed against the fixture tables below twice — through a
//     container's ad-hoc path (the result cache, which compiles what
//     binds) and through the interpreter over the same tables — and
//     the two must agree, so the documented SQL surface cannot rot
//     ahead of (or behind) either evaluator. Full-line "-- comment"
//     lines are stripped; statements split on trailing semicolons.
//   - Peer routes: every /p2p/… path named in docs/*.md must be a
//     route the p2p server registers, and every registered route must
//     be named there (the peer-protocol table in architecture.md).
//   - Measurement references: every `-experiment <name>` in README.md
//     and docs/*.md must be a name gsn-bench accepts, and every
//     bench_results/… path named there must exist.
//   - Tier counters: every source_eval_*, client_query_* and
//     adhoc_query_* counter a container registers must be named in
//     docs/operations.md's counter table, and every such name there
//     must be one a container registers.
//
// Run by `make docs-check` (wired into `make ci` and the GitHub
// workflow). Exit status is non-zero when anything is broken.
package main

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"

	"gsn/internal/bench"
	"gsn/internal/core"
	"gsn/internal/p2p"
	"gsn/internal/sqlengine"
	"gsn/internal/storage"
	"gsn/internal/stream"
)

func main() {
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	files := []string{"README.md", "ROADMAP.md", "CHANGES.md"}
	docs, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err == nil {
		sort.Strings(docs)
		files = append(files, docs...)
	}
	for _, f := range files {
		checkLinks(f, report)
	}
	checkDialectExamples(filepath.Join("docs", "sql-dialect.md"), report)
	checkPeerRoutes(docs, report)
	checkTierCounters(filepath.Join("docs", "operations.md"), report)
	for _, f := range append([]string{"README.md"}, docs...) {
		checkMeasurementRefs(f, report)
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docs-check:", p)
		}
		os.Exit(1)
	}
	fmt.Println("docs-check: ok")
}

// linkPattern matches markdown inline links [text](target). Images
// ![alt](target) match too via the optional bang.
var linkPattern = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkLinks verifies every relative link target in one markdown file.
func checkLinks(path string, report func(string, ...any)) {
	data, err := os.ReadFile(path)
	if err != nil {
		report("%s: %v", path, err)
		return
	}
	dir := filepath.Dir(path)
	for _, m := range linkPattern.FindAllStringSubmatch(string(data), -1) {
		target := m[1]
		switch {
		case strings.HasPrefix(target, "http://"),
			strings.HasPrefix(target, "https://"),
			strings.HasPrefix(target, "mailto:"),
			strings.HasPrefix(target, "#"):
			continue
		}
		// Strip an anchor or query suffix from a file link.
		if i := strings.IndexAny(target, "#?"); i >= 0 {
			target = target[:i]
		}
		if target == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
			report("%s: broken link %q", path, m[1])
		}
	}
}

// peerPathPattern matches a concrete peer route path; the generic
// "/p2p/" and "/p2p/*" spellings do not match.
var peerPathPattern = regexp.MustCompile(`/p2p/[a-z][a-z/]*`)

// checkPeerRoutes compares the /p2p/ paths the docs name with the
// paths the p2p server registers, in both directions.
func checkPeerRoutes(docs []string, report func(string, ...any)) {
	registered := map[string]bool{}
	for _, pattern := range p2p.Routes() {
		_, path, _ := strings.Cut(pattern, " ")
		registered[path] = true
	}
	named := map[string]bool{}
	for _, f := range docs {
		data, err := os.ReadFile(f)
		if err != nil {
			report("%s: %v", f, err)
			continue
		}
		for _, path := range peerPathPattern.FindAllString(string(data), -1) {
			named[path] = true
			if !registered[path] {
				report("%s: names peer route %s, which the p2p server does not register", f, path)
			}
		}
	}
	for path := range registered {
		if !named[path] {
			report("docs/: peer route %s is registered but documented nowhere", path)
		}
	}
}

// tierCounterPattern matches a tier counter's name in backquotes.
var tierCounterPattern = regexp.MustCompile("`((?:source_eval|client_query|adhoc_query)_[a-z_]+)`")

// checkTierCounters holds the tier counters a container registers and
// those the table rows of path (its lines starting with "|") name to
// each other, in both directions.
func checkTierCounters(path string, report func(string, ...any)) {
	data, err := os.ReadFile(path)
	c, cerr := core.New(core.Options{Name: "docs-check", SyncProcessing: true})
	if err = cmp.Or(err, cerr); err != nil {
		report("%s: %v", path, err)
		return
	}
	defer c.Close()
	seen := map[string]int{} // 1: registered, 2: named, 3: both
	for name, v := range c.Metrics().Snapshot() {
		if _, counter := v.(uint64); counter && tierCounterPattern.MatchString("`"+name+"`") {
			seen[name] |= 1
		}
	}
	for _, line := range strings.Split(string(data), "\n") {
		for _, m := range tierCounterPattern.FindAllStringSubmatch(line, -1) {
			if strings.HasPrefix(line, "|") {
				seen[m[1]] |= 2
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(seen)) {
		switch seen[name] {
		case 1:
			report("%s: counter %s is registered but missing from the counter table", path, name)
		case 2:
			report("%s: counter table names %s, which a container does not register", path, name)
		}
	}
}

// experimentPattern matches a gsn-bench invocation's experiment
// argument, alone or as a figure3|figure4 alternation; resultsPattern a
// path under the directory gsn-bench's CSVs used to be committed to.
var (
	experimentPattern = regexp.MustCompile(`-experiment[ =]([a-z0-9|]+)`)
	resultsPattern    = regexp.MustCompile(`bench_results/[\w.*-]*`)
)

// checkMeasurementRefs fails a document that sends the reader to an
// experiment gsn-bench rejects or to a results file that is not there.
func checkMeasurementRefs(path string, report func(string, ...any)) {
	data, err := os.ReadFile(path)
	if err != nil {
		report("%s: %v", path, err)
		return
	}
	for _, m := range experimentPattern.FindAllStringSubmatch(string(data), -1) {
		for _, name := range strings.Split(m[1], "|") {
			if err := bench.CheckExperiment(name); err != nil {
				report("%s: names gsn-bench %s: %v", path, m[0], err)
			}
		}
	}
	for _, ref := range resultsPattern.FindAllString(string(data), -1) {
		if found, _ := filepath.Glob(ref); len(found) == 0 {
			report("%s: names %s, which does not exist", path, ref)
		}
	}
}

// fixtureContainer builds a container holding the tables the dialect
// examples run against. docs/sql-dialect.md documents this fixture in
// its own "fixture" section; keep the two in sync. Its clock stands
// still, so a NOW() example reads the same instant on both paths.
func fixtureContainer() (*core.Container, error) {
	c, err := core.New(core.Options{Name: "docs-check", SyncProcessing: true, Clock: stream.NewManualClock(10_000)})
	if err != nil {
		return nil, err
	}
	fill := func(name string, schema *stream.Schema, rows [][]stream.Value) error {
		table, err := c.Store().CreateTable(name, schema, storage.TableOptions{
			Window: stream.Window{Kind: stream.CountWindow, Count: 100},
		})
		if err != nil {
			return err
		}
		for i, r := range rows {
			e, err := stream.NewElement(schema, stream.Timestamp(1000*(i+1)), r...)
			if err != nil {
				return err
			}
			if err := table.Insert(e); err != nil {
				return err
			}
		}
		return nil
	}
	err = fill("readings", stream.MustSchema(
		stream.Field{Name: "room", Type: stream.TypeString},
		stream.Field{Name: "value", Type: stream.TypeFloat},
	), [][]stream.Value{
		{"kitchen", 21.5},
		{"kitchen", 23.0},
		{"lab", 19.0},
		{"lab", nil},
		{"office", 27.5},
	})
	if err == nil {
		err = fill("alarms", stream.MustSchema(
			stream.Field{Name: "room", Type: stream.TypeString},
			stream.Field{Name: "level", Type: stream.TypeInt},
		), [][]stream.Value{
			{"lab", int64(2)},
			{"office", int64(1)},
		})
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// sqlBlockPattern captures ```sql fenced blocks.
var sqlBlockPattern = regexp.MustCompile("(?s)```sql\n(.*?)```")

// checkDialectExamples executes every SQL example in the dialect doc.
func checkDialectExamples(path string, report func(string, ...any)) {
	data, err := os.ReadFile(path)
	if err != nil {
		report("%s: %v", path, err)
		return
	}
	c, err := fixtureContainer()
	if err != nil {
		report("fixture: %v", err)
		return
	}
	defer c.Close()
	blocks := sqlBlockPattern.FindAllStringSubmatch(string(data), -1)
	if len(blocks) == 0 {
		report("%s: no ```sql blocks found (smoke has nothing to check)", path)
		return
	}
	executed := 0
	for _, b := range blocks {
		for _, stmt := range splitStatements(b[1]) {
			want, err := sqlengine.ExecuteSQL(stmt, c.Catalog(), sqlengine.Options{Clock: c.Clock()})
			if err != nil {
				report("%s: example failed: %q: %v", path, stmt, err)
				continue
			}
			got, err := c.LocalQuery(stmt)
			if err != nil {
				report("%s: example failed on the ad-hoc path: %q: %v", path, stmt, err)
				continue
			}
			if got.String() != want.String() {
				report("%s: example %q: ad-hoc path returned\n%s\ninterpreter returned\n%s", path, stmt, got, want)
				continue
			}
			executed++
		}
	}
	fmt.Printf("docs-check: executed %d dialect examples from %s\n", executed, path)
}

// splitStatements strips full-line comments and splits a block on
// trailing semicolons; a block without semicolons is one statement.
func splitStatements(block string) []string {
	var kept []string
	for _, line := range strings.Split(block, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "--") {
			continue
		}
		kept = append(kept, line)
	}
	var out []string
	for _, stmt := range strings.Split(strings.Join(kept, "\n"), ";") {
		if stmt = strings.TrimSpace(stmt); stmt != "" {
			out = append(out, stmt)
		}
	}
	return out
}
