package vsensor

import (
	"strings"
	"testing"

	"gsn/internal/stream"
)

// paperDescriptor is the paper's Figure 1 fragment, completed into a
// full document (the paper elides parts with "...").
const paperDescriptor = `
<virtual-sensor name="avg-temperature" priority="10">
  <life-cycle pool-size="10" />
  <output-structure>
    <field name="TEMPERATURE" type="integer"/>
  </output-structure>
  <storage permanent-storage="true" size="10s" />
  <input-stream name="dummy" rate="100">
    <stream-source alias="src1" sampling-rate="1"
                   storage-size="1h" disconnect-buffer="10">
      <address wrapper="remote">
        <predicate key="type" val="temperature" />
        <predicate key="location" val="bc143" />
      </address>
      <query>select avg(temperature) from WRAPPER</query>
    </stream-source>
    <query>select * from src1</query>
  </input-stream>
</virtual-sensor>`

func TestParsePaperDescriptor(t *testing.T) {
	d, err := Parse([]byte(paperDescriptor))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Name != "avg-temperature" || d.Priority != 10 {
		t.Errorf("name/priority = %q/%d", d.Name, d.Priority)
	}
	if !d.Storage.Permanent || d.Storage.Size != "10s" {
		t.Errorf("storage = %+v", d.Storage)
	}
	in := d.Streams[0]
	if in.Name != "dummy" || in.Rate != 100 {
		t.Errorf("input stream = %+v", in)
	}
	src := in.Sources[0]
	if src.Alias != "src1" || src.SamplingRate != 1 || src.DisconnectBuffer != 10 {
		t.Errorf("source = %+v", src)
	}
	if src.Address.Wrapper != "remote" {
		t.Errorf("wrapper = %q", src.Address.Wrapper)
	}
	if got := src.Address.Predicates[0].Value(); got != "temperature" {
		t.Errorf("predicate value = %q", got)
	}
	schema, err := d.OutputSchema()
	if err != nil {
		t.Fatalf("OutputSchema: %v", err)
	}
	if schema.Len() != 1 || schema.Field(0).Name != "TEMPERATURE" || schema.Field(0).Type != stream.TypeInt {
		t.Errorf("schema = %s", schema)
	}
	if w := d.StorageWindow(); w.Kind != stream.TimeWindow {
		t.Errorf("window = %+v", w)
	}
}

func TestDefaultsApplied(t *testing.T) {
	d, err := Parse([]byte(`
<virtual-sensor name="minimal">
  <output-structure><field name="v" type="double"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s">
      <address wrapper="timer"/>
      <query>select tick from wrapper</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if d.Storage.Size != "100" {
		t.Errorf("default storage size = %q", d.Storage.Size)
	}
	src := d.Streams[0].Sources[0]
	if src.SamplingRate != 1 || src.StorageSize != "1" {
		t.Errorf("source defaults = %+v", src)
	}
}

func TestPredicateChardataForm(t *testing.T) {
	d, err := Parse([]byte(`
<virtual-sensor name="p">
  <output-structure><field name="v" type="double"/></output-structure>
  <input-stream name="in">
    <stream-source alias="s">
      <address wrapper="mote">
        <predicate key="interval">250</predicate>
      </address>
      <query>select light from wrapper</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := d.Streams[0].Sources[0].Address.Predicates[0].Value(); got != "250" {
		t.Errorf("chardata predicate = %q", got)
	}
}

func mutate(base, old, new string) string { return strings.Replace(base, old, new, 1) }

func TestValidationErrors(t *testing.T) {
	cases := map[string]string{
		"no name":           mutate(paperDescriptor, `name="avg-temperature"`, `name=""`),
		"bad name chars":    mutate(paperDescriptor, `name="avg-temperature"`, `name="has space"`),
		"bad field type":    mutate(paperDescriptor, `type="integer"`, `type="quaternion"`),
		"bad window":        mutate(paperDescriptor, `size="10s"`, `size="10parsecs"`),
		"bad source window": mutate(paperDescriptor, `storage-size="1h"`, `storage-size="zzz"`),
		"bad sampling":      mutate(paperDescriptor, `sampling-rate="1"`, `sampling-rate="1.5"`),
		"no wrapper":        mutate(paperDescriptor, `wrapper="remote"`, `wrapper=""`),
		"bad source query":  mutate(paperDescriptor, `select avg(temperature) from WRAPPER`, `selec broken`),
		"bad stream query":  mutate(paperDescriptor, `select * from src1`, `select * from nosuch`),
		"reserved alias":    mutate(paperDescriptor, `alias="src1"`, `alias="wrapper"`),
		"foreign table in source query": mutate(paperDescriptor,
			`select avg(temperature) from WRAPPER`, `select avg(temperature) from other_table`),
		"negative buffer": mutate(paperDescriptor, `disconnect-buffer="10"`, `disconnect-buffer="-1"`),
		"negative rate":   mutate(paperDescriptor, `rate="100"`, `rate="-1"`),
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: descriptor accepted", label)
		}
	}
}

func TestValidateStructuralErrors(t *testing.T) {
	cases := map[string]string{
		"no output fields": `<virtual-sensor name="x">
			<output-structure/>
			<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source>
			<query>select * from s</query></input-stream></virtual-sensor>`,
		"no input streams": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure></virtual-sensor>`,
		"no sources": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure>
			<input-stream name="i"><query>select 1</query></input-stream></virtual-sensor>`,
		"no stream query": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure>
			<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source></input-stream></virtual-sensor>`,
		"duplicate aliases": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure>
			<input-stream name="i">
			<stream-source alias="s"><address wrapper="timer"/><query>select * from wrapper</query></stream-source>
			<stream-source alias="S"><address wrapper="timer"/><query>select * from wrapper</query></stream-source>
			<query>select * from s</query></input-stream></virtual-sensor>`,
		"duplicate streams": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure>
			<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source><query>select * from s</query></input-stream>
			<input-stream name="I"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source><query>select * from s</query></input-stream>
			</virtual-sensor>`,
		"duplicate output fields": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/><field name="V" type="integer"/></output-structure>
			<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source><query>select * from s</query></input-stream>
			</virtual-sensor>`,
		"bad notification": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure>
			<notification channel="carrier-pigeon"/>
			<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source><query>select * from s</query></input-stream>
			</virtual-sensor>`,
		"webhook without target": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure>
			<notification channel="webhook"/>
			<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source><query>select * from s</query></input-stream>
			</virtual-sensor>`,
		"bad sync": `<virtual-sensor name="x">
			<output-structure><field name="v" type="double"/></output-structure>
			<storage size="10" permanent-storage="true" sync="eventually"/>
			<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
			<query>select * from wrapper</query></stream-source><query>select * from s</query></input-stream>
			</virtual-sensor>`,
	}
	for label, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: descriptor accepted", label)
		}
	}
}

// TestRetiredLanesAttrIgnored: descriptors written while the ingest-lane
// tier existed carry lanes="auto|N" on <storage>. The attribute is gone
// from the schema and must be ignored like any unknown XML attribute,
// not rejected — such a descriptor still deploys.
func TestRetiredLanesAttrIgnored(t *testing.T) {
	d, err := Parse([]byte(`<virtual-sensor name="x">
		<output-structure><field name="v" type="double"/></output-structure>
		<storage size="10" permanent-storage="true" sync="durable" lanes="auto"/>
		<input-stream name="i"><stream-source alias="s"><address wrapper="timer"/>
		<query>select * from wrapper</query></stream-source><query>select * from s</query></input-stream>
		</virtual-sensor>`))
	if err != nil {
		t.Fatalf("descriptor with the retired lanes attribute rejected: %v", err)
	}
	if d.Storage.Sync != "durable" || !d.Storage.Permanent {
		t.Fatalf("storage spec = %+v", d.Storage)
	}
}

func TestMalformedXML(t *testing.T) {
	if _, err := Parse([]byte("<virtual-sensor")); err == nil {
		t.Error("truncated XML accepted")
	}
	if _, err := Parse([]byte("")); err == nil {
		t.Error("empty document accepted")
	}
}

func TestMetadataMap(t *testing.T) {
	d, err := Parse([]byte(mutate(paperDescriptor, "<life-cycle",
		`<metadata>
			<predicate key="type" val="temperature"/>
			<predicate key="Location" val="bc143"/>
		 </metadata><life-cycle`)))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := d.MetadataMap()
	if m["type"] != "temperature" || m["location"] != "bc143" {
		t.Errorf("metadata = %v", m)
	}
	if m["name"] != "avg-temperature" {
		t.Errorf("name missing from metadata: %v", m)
	}
}

func TestRatePeriod(t *testing.T) {
	in := InputStream{Rate: 100}
	if got := in.RatePeriod().Milliseconds(); got != 10 {
		t.Errorf("RatePeriod(100/s) = %dms", got)
	}
	unbounded := InputStream{}
	if got := unbounded.RatePeriod(); got != 0 {
		t.Errorf("RatePeriod(0) = %v", got)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	d, err := Parse([]byte(paperDescriptor))
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.XML()
	if err != nil {
		t.Fatalf("XML: %v", err)
	}
	d2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-Parse: %v", err)
	}
	if d2.Name != d.Name ||
		len(d2.Streams) != len(d.Streams) ||
		d2.Streams[0].Sources[0].Query != d.Streams[0].Sources[0].Query {
		t.Errorf("round-trip diverged: %+v vs %+v", d2, d)
	}
}

func TestMultiSourceJoinDescriptor(t *testing.T) {
	d, err := Parse([]byte(`
<virtual-sensor name="join-two-networks">
  <output-structure>
    <field name="temperature" type="integer"/>
    <field name="light" type="integer"/>
  </output-structure>
  <input-stream name="combined">
    <stream-source alias="temps" storage-size="30s">
      <address wrapper="mote"><predicate key="sensors" val="temperature"/></address>
      <query>select avg(temperature) as t from WRAPPER</query>
    </stream-source>
    <stream-source alias="lights" storage-size="30s">
      <address wrapper="mote"><predicate key="sensors" val="light"/></address>
      <query>select avg(light) as l from WRAPPER</query>
    </stream-source>
    <query>select temps.t, lights.l from temps, lights</query>
  </input-stream>
</virtual-sensor>`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(d.Streams[0].Sources) != 2 {
		t.Errorf("sources = %d", len(d.Streams[0].Sources))
	}
}
