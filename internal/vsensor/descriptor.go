// Package vsensor defines GSN's declarative deployment descriptors
// (paper §2): the XML document that fully specifies a virtual sensor —
// its metadata, life-cycle resources, output structure, storage policy
// and input streams with their wrapped sources and SQL processing.
//
// Deploying a sensor network is writing one of these files; no
// programming is involved, which is the paper's headline deployment
// claim.
package vsensor

import (
	"encoding/xml"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gsn/internal/sqlparser"
	"gsn/internal/stream"
)

// Descriptor is the root <virtual-sensor> element.
type Descriptor struct {
	XMLName xml.Name `xml:"virtual-sensor"`
	// Name uniquely identifies the virtual sensor within its container.
	Name string `xml:"name,attr"`
	// Priority orders trigger processing when the container is loaded
	// (higher first). Default 0.
	Priority int `xml:"priority,attr"`
	// Description is free-text metadata, published to the directory.
	Description string `xml:"description,attr"`

	LifeCycle LifeCycle       `xml:"life-cycle"`
	Output    OutputStructure `xml:"output-structure"`
	Storage   StorageSpec     `xml:"storage"`
	Streams   []InputStream   `xml:"input-stream"`
	Notify    []Notification  `xml:"notification"`
	// Metadata key-value pairs are published to the peer-to-peer
	// directory for discovery (paper §4: "identified by user-definable
	// key-value pairs").
	Metadata []Predicate `xml:"metadata>predicate"`
}

// LifeCycle carries resource-management attributes.
type LifeCycle struct {
	// PoolSize is the paper's pool-size attribute. It is parsed and
	// validated, so descriptors in the paper's format deploy unchanged,
	// but it sizes no pool: a trigger evaluates on the goroutine that
	// delivered its element. Default 1.
	PoolSize int `xml:"pool-size,attr"`
}

// OutputStructure declares the produced stream's fields.
type OutputStructure struct {
	Fields []FieldSpec `xml:"field"`
}

// FieldSpec is one <field name=... type=.../>.
type FieldSpec struct {
	Name        string `xml:"name,attr"`
	Type        string `xml:"type,attr"`
	Description string `xml:"description,attr"`
}

// StorageSpec controls persistence of the output stream.
type StorageSpec struct {
	// Permanent enables the append-only disk log.
	Permanent bool `xml:"permanent-storage,attr"`
	// Size is the retention window of the output table ("10s", "1h",
	// or a tuple count). Default "100".
	Size string `xml:"size,attr"`
	// Sync selects the WAL durability policy for permanent storage:
	// "always" (acked once written, the default), "durable" (acked
	// once fdatasynced), "interval" (group commit on a background
	// interval), or "none" (write on byte threshold and barriers only).
	Sync string `xml:"sync,attr"`
	// FlushInterval tunes the "interval" group-commit period (a Go
	// duration such as "5ms"; empty uses the storage default).
	FlushInterval string `xml:"flush-interval,attr"`
	// History selects what happens to elements the retention window
	// evicts: "" (discarded, the default) or "disk" (migrated to the
	// paged on-disk history tier with a B+tree time index, servable by
	// TIMED-range queries). "disk" requires permanent-storage.
	History string `xml:"history,attr"`
}

// InputStream declares one input with its sources and combining query.
type InputStream struct {
	Name string `xml:"name,attr"`
	// Rate bounds the stream to at most Rate elements/second; excess
	// triggers are dropped to avoid overload (paper §3). 0 = unbounded.
	Rate float64 `xml:"rate,attr"`
	// Count bounds the total number of elements processed over the
	// stream's lifetime; 0 = unbounded.
	Count int64 `xml:"count,attr"`

	Sources []StreamSource `xml:"stream-source"`
	// Query combines the per-source temporary relations into the output
	// (the paper's step 4).
	Query string `xml:"query"`
}

// StreamSource declares one wrapped data source feeding an input stream.
type StreamSource struct {
	Alias string `xml:"alias,attr"`
	// SamplingRate in (0,1] keeps that fraction of arriving elements
	// (paper §3, "sampling of data streams"). Default 1.
	SamplingRate float64 `xml:"sampling-rate,attr"`
	// StorageSize is the window the source query sees ("1h", "10").
	// Default "1" (latest element only).
	StorageSize string `xml:"storage-size,attr"`
	// DisconnectBuffer is the number of elements buffered while the
	// source is disconnected (paper Figure 1). Default 0.
	DisconnectBuffer int `xml:"disconnect-buffer,attr"`
	// Slide triggers processing only on every Slide-th arriving
	// element; the window itself still advances on every arrival
	// (sliding-window extension of the paper's §3 windowing mechanism).
	// 0 and 1 both mean "every element".
	Slide int `xml:"slide,attr"`

	Address Address `xml:"address"`
	// Query runs over the source window; the reserved table name
	// WRAPPER refers to it (paper §2).
	Query string `xml:"query"`
}

// Address selects and parameterises the wrapper.
type Address struct {
	Wrapper    string      `xml:"wrapper,attr"`
	Predicates []Predicate `xml:"predicate"`
}

// Predicate is one key-value parameter. GSN descriptors in the wild use
// both <predicate key="k" val="v"/> and <predicate key="k">v</predicate>;
// both are accepted, attribute winning.
type Predicate struct {
	Key  string `xml:"key,attr"`
	Val  string `xml:"val,attr"`
	Text string `xml:",chardata"`
}

// Value returns the effective predicate value.
func (p Predicate) Value() string {
	if p.Val != "" {
		return p.Val
	}
	return strings.TrimSpace(p.Text)
}

// Notification wires an output channel declaratively.
type Notification struct {
	// Channel is the channel kind: "log", "webhook", "file".
	Channel string `xml:"channel,attr"`
	// Target is channel-specific: a URL for webhook, a path for file.
	Target string `xml:"target,attr"`
}

// Parse unmarshals and validates a descriptor document.
func Parse(data []byte) (*Descriptor, error) {
	var d Descriptor
	if err := xml.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("vsensor: malformed descriptor XML: %w", err)
	}
	d.applyDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ParseFile reads and parses a descriptor file.
func ParseFile(path string) (*Descriptor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// applyDefaults fills the documented defaults in place.
func (d *Descriptor) applyDefaults() {
	if d.LifeCycle.PoolSize == 0 {
		d.LifeCycle.PoolSize = 1
	}
	if d.Storage.Size == "" {
		d.Storage.Size = "100"
	}
	for i := range d.Streams {
		for j := range d.Streams[i].Sources {
			src := &d.Streams[i].Sources[j]
			if src.SamplingRate == 0 {
				src.SamplingRate = 1
			}
			if src.StorageSize == "" {
				src.StorageSize = "1"
			}
		}
	}
}

// Validate checks structural and semantic constraints: names, types,
// window grammar, query parseability and table references. It is called
// by Parse; containers call it again before deployment to defend against
// programmatically built descriptors.
func (d *Descriptor) Validate() error {
	if strings.TrimSpace(d.Name) == "" {
		return fmt.Errorf("vsensor: descriptor has no name")
	}
	for _, r := range d.Name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '-') {
			return fmt.Errorf("vsensor: %s: name contains invalid character %q", d.Name, r)
		}
	}
	if d.LifeCycle.PoolSize < 1 {
		return fmt.Errorf("vsensor: %s: pool-size must be >= 1", d.Name)
	}
	if d.LifeCycle.PoolSize > 1024 {
		return fmt.Errorf("vsensor: %s: pool-size %d is unreasonable", d.Name, d.LifeCycle.PoolSize)
	}
	if len(d.Output.Fields) == 0 {
		return fmt.Errorf("vsensor: %s: output-structure has no fields", d.Name)
	}
	if _, err := d.OutputSchema(); err != nil {
		return err
	}
	if _, err := stream.ParseWindow(d.Storage.Size); err != nil {
		return fmt.Errorf("vsensor: %s: storage size: %w", d.Name, err)
	}
	switch d.Storage.Sync {
	case "", "always", "interval", "none", "durable":
	default:
		return fmt.Errorf("vsensor: %s: storage sync must be always, interval, none or durable (got %q)",
			d.Name, d.Storage.Sync)
	}
	if d.Storage.FlushInterval != "" {
		if _, err := time.ParseDuration(d.Storage.FlushInterval); err != nil {
			return fmt.Errorf("vsensor: %s: storage flush-interval: %w", d.Name, err)
		}
	}
	switch d.Storage.History {
	case "":
	case "disk":
		if !d.Storage.Permanent {
			return fmt.Errorf("vsensor: %s: storage history=\"disk\" requires permanent-storage=\"true\"", d.Name)
		}
	default:
		return fmt.Errorf("vsensor: %s: storage history must be empty or \"disk\" (got %q)",
			d.Name, d.Storage.History)
	}
	if len(d.Streams) == 0 {
		return fmt.Errorf("vsensor: %s: no input-stream defined", d.Name)
	}

	streamNames := map[string]bool{}
	for i := range d.Streams {
		in := &d.Streams[i]
		if strings.TrimSpace(in.Name) == "" {
			return fmt.Errorf("vsensor: %s: input-stream %d has no name", d.Name, i)
		}
		key := stream.CanonicalName(in.Name)
		if streamNames[key] {
			return fmt.Errorf("vsensor: %s: duplicate input-stream name %s", d.Name, in.Name)
		}
		streamNames[key] = true
		if in.Rate < 0 {
			return fmt.Errorf("vsensor: %s/%s: negative rate", d.Name, in.Name)
		}
		if in.Count < 0 {
			return fmt.Errorf("vsensor: %s/%s: negative count", d.Name, in.Name)
		}
		if len(in.Sources) == 0 {
			return fmt.Errorf("vsensor: %s/%s: no stream-source", d.Name, in.Name)
		}
		if strings.TrimSpace(in.Query) == "" {
			return fmt.Errorf("vsensor: %s/%s: missing query", d.Name, in.Name)
		}

		aliases := map[string]bool{}
		for j := range in.Sources {
			src := &in.Sources[j]
			if strings.TrimSpace(src.Alias) == "" {
				return fmt.Errorf("vsensor: %s/%s: stream-source %d has no alias", d.Name, in.Name, j)
			}
			alias := stream.CanonicalName(src.Alias)
			if alias == wrapperTable {
				return fmt.Errorf("vsensor: %s/%s: alias %q is reserved", d.Name, in.Name, src.Alias)
			}
			if aliases[alias] {
				return fmt.Errorf("vsensor: %s/%s: duplicate alias %s", d.Name, in.Name, src.Alias)
			}
			aliases[alias] = true
			if src.SamplingRate <= 0 || src.SamplingRate > 1 {
				return fmt.Errorf("vsensor: %s/%s/%s: sampling-rate %v outside (0,1]",
					d.Name, in.Name, src.Alias, src.SamplingRate)
			}
			if src.DisconnectBuffer < 0 {
				return fmt.Errorf("vsensor: %s/%s/%s: negative disconnect-buffer", d.Name, in.Name, src.Alias)
			}
			if src.Slide < 0 {
				return fmt.Errorf("vsensor: %s/%s/%s: negative slide", d.Name, in.Name, src.Alias)
			}
			if _, err := stream.ParseWindow(src.StorageSize); err != nil {
				return fmt.Errorf("vsensor: %s/%s/%s: storage-size: %w", d.Name, in.Name, src.Alias, err)
			}
			if strings.TrimSpace(src.Address.Wrapper) == "" {
				return fmt.Errorf("vsensor: %s/%s/%s: address has no wrapper", d.Name, in.Name, src.Alias)
			}
			if src.Address.Wrapper == LocalWrapperKind {
				target := src.Address.LocalTarget()
				if target == "" {
					return fmt.Errorf("vsensor: %s/%s/%s: local source needs a <predicate key=\"sensor\"> naming the upstream virtual sensor",
						d.Name, in.Name, src.Alias)
				}
				if target == stream.CanonicalName(d.Name) {
					return fmt.Errorf("vsensor: %s/%s/%s: local source cannot depend on its own sensor",
						d.Name, in.Name, src.Alias)
				}
			}
			if strings.TrimSpace(src.Query) == "" {
				return fmt.Errorf("vsensor: %s/%s/%s: missing source query", d.Name, in.Name, src.Alias)
			}
			stmt, err := sqlparser.Parse(src.Query)
			if err != nil {
				return fmt.Errorf("vsensor: %s/%s/%s: source query: %w", d.Name, in.Name, src.Alias, err)
			}
			for _, table := range stmt.Tables() {
				if table != wrapperTable && table != alias {
					return fmt.Errorf("vsensor: %s/%s/%s: source query references %s; only WRAPPER (or the source alias) is visible",
						d.Name, in.Name, src.Alias, table)
				}
			}
		}

		stmt, err := sqlparser.Parse(in.Query)
		if err != nil {
			return fmt.Errorf("vsensor: %s/%s: query: %w", d.Name, in.Name, err)
		}
		for _, table := range stmt.Tables() {
			if !aliases[table] {
				return fmt.Errorf("vsensor: %s/%s: query references unknown source %s (aliases: %v)",
					d.Name, in.Name, table, keys(aliases))
			}
		}
	}

	for _, n := range d.Notify {
		switch n.Channel {
		case "log":
		case "webhook", "file":
			if strings.TrimSpace(n.Target) == "" {
				return fmt.Errorf("vsensor: %s: %s notification requires a target", d.Name, n.Channel)
			}
		default:
			return fmt.Errorf("vsensor: %s: unknown notification channel %q", d.Name, n.Channel)
		}
	}
	return nil
}

// wrapperTable is the reserved table name source queries use to address
// their window (paper §2: "refer to the input streams by the reserved
// keyword WRAPPER").
const wrapperTable = "WRAPPER"

// WrapperTable exposes the reserved name to the container.
func WrapperTable() string { return wrapperTable }

// LocalWrapperKind is the reserved wrapper kind for in-process virtual
// sensor composition (paper Figures 1–2: a virtual sensor's input
// stream can be another virtual sensor). A local source subscribes to
// the output stream of the sensor named by its "sensor" predicate:
//
//	<address wrapper="local"><predicate key="sensor" val="per-room-avg"/></address>
const LocalWrapperKind = "local"

// LocalTarget returns the canonical upstream sensor name of a local
// address ("" when absent or when the address is not local).
func (a Address) LocalTarget() string {
	if a.Wrapper != LocalWrapperKind {
		return ""
	}
	for _, p := range a.Predicates {
		if strings.EqualFold(strings.TrimSpace(p.Key), "sensor") {
			return stream.CanonicalName(p.Value())
		}
	}
	return ""
}

// LocalDependencies lists the canonical names of the virtual sensors
// this descriptor's local sources subscribe to, deduplicated and
// sorted. The container records them as dependency-graph edges.
func (d *Descriptor) LocalDependencies() []string {
	seen := map[string]bool{}
	var out []string
	for i := range d.Streams {
		for j := range d.Streams[i].Sources {
			if t := d.Streams[i].Sources[j].Address.LocalTarget(); t != "" && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Strings(out)
	return out
}

// OutputSchema converts the output-structure into a stream schema.
func (d *Descriptor) OutputSchema() (*stream.Schema, error) {
	fields := make([]stream.Field, 0, len(d.Output.Fields))
	for _, f := range d.Output.Fields {
		t, err := stream.ParseFieldType(f.Type)
		if err != nil {
			return nil, fmt.Errorf("vsensor: %s: output field %s: %w", d.Name, f.Name, err)
		}
		fields = append(fields, stream.Field{Name: f.Name, Type: t, Description: f.Description})
	}
	schema, err := stream.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("vsensor: %s: %w", d.Name, err)
	}
	return schema, nil
}

// StorageWindow parses the output retention window.
func (d *Descriptor) StorageWindow() (stream.Window, error) {
	return stream.ParseWindow(d.Storage.Size)
}

// RatePeriod converts an input stream's rate bound into the minimum
// period between elements; zero means unbounded.
func (in *InputStream) RatePeriod() time.Duration {
	if in.Rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / in.Rate)
}

// MetadataMap flattens the metadata predicates, always including the
// sensor name under "name".
func (d *Descriptor) MetadataMap() map[string]string {
	m := make(map[string]string, len(d.Metadata)+1)
	for _, p := range d.Metadata {
		if k := strings.TrimSpace(p.Key); k != "" {
			m[strings.ToLower(k)] = p.Value()
		}
	}
	m["name"] = d.Name
	return m
}

// XML marshals the descriptor back to indented XML (used by the web
// interface's export endpoint and by tests for round-tripping).
func (d *Descriptor) XML() ([]byte, error) {
	return xml.MarshalIndent(d, "", "  ")
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
