// Layered composition: a three-tier derivation pipeline built entirely
// from local virtual-sensor composition (the paper's Figures 1–2 —
// a virtual sensor's input stream is another virtual sensor).
//
//	tier 1: raw-a, raw-b      — simulated motes, one per room
//	tier 2: room-a, room-b    — per-room average over a sliding window
//	tier 3: building-alarm    — joins both room averages into one tuple
//
// The descriptors are handed over in the WRONG order on purpose: the
// container's dependency graph topologically orders the batch. The
// example then hot-redeploys the middle tier while elements flow —
// with an unchanged output schema the swap preserves the output
// window, the downstream local edge and the registered client query.
//
// Run with:
//
//	go run ./examples/layered
package main

import (
	"fmt"
	"log"

	"gsn"
)

const rawRoom = `
<virtual-sensor name="raw-%s">
  <output-structure>
    <field name="temperature" type="integer" description="0.1 °C units"/>
  </output-structure>
  <storage size="50"/>
  <input-stream name="in">
    <stream-source alias="m" storage-size="1">
      <address wrapper="mote">
        <predicate key="sensors" val="temperature"/>
        <predicate key="seed" val="%d"/>
      </address>
      <query>select temperature from WRAPPER</query>
    </stream-source>
    <query>select * from m</query>
  </input-stream>
</virtual-sensor>`

const roomAvg = `
<virtual-sensor name="room-%s">
  <output-structure>
    <field name="temperature" type="double" description="windowed room average"/>
  </output-structure>
  <storage size="50"/>
  <input-stream name="in">
    <stream-source alias="s" storage-size="%d">
      <address wrapper="local"><predicate key="sensor" val="raw-%s"/></address>
      <query>select avg(temperature) as temperature from WRAPPER</query>
    </stream-source>
    <query>select * from s</query>
  </input-stream>
</virtual-sensor>`

const buildingAlarm = `
<virtual-sensor name="building-alarm">
  <output-structure>
    <field name="room_a" type="double"/>
    <field name="room_b" type="double"/>
  </output-structure>
  <storage size="50"/>
  <input-stream name="in">
    <stream-source alias="a" storage-size="1">
      <address wrapper="local"><predicate key="sensor" val="room-a"/></address>
      <query>select temperature from WRAPPER</query>
    </stream-source>
    <stream-source alias="b" storage-size="1">
      <address wrapper="local"><predicate key="sensor" val="room-b"/></address>
      <query>select temperature from WRAPPER</query>
    </stream-source>
    <query>select a.temperature as room_a, b.temperature as room_b from a, b</query>
  </input-stream>
</virtual-sensor>`

func main() {
	node, err := gsn.NewNode(gsn.NodeOptions{
		Name:           "layered",
		Clock:          gsn.NewManualClock(1_000_000),
		SyncProcessing: true, // deterministic: the client query's sweep runs inside each Pulse's cascade too
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// Hand the batch over leaf-first: topological ordering sorts it out.
	var descs []*gsn.Descriptor
	for _, xml := range []string{
		buildingAlarm,
		fmt.Sprintf(roomAvg, "a", 10, "a"),
		fmt.Sprintf(roomAvg, "b", 10, "b"),
		fmt.Sprintf(rawRoom, "a", 1),
		fmt.Sprintf(rawRoom, "b", 2),
	} {
		d, err := gsn.ParseDescriptor([]byte(xml))
		if err != nil {
			log.Fatal(err)
		}
		descs = append(descs, d)
	}
	deployed, err := node.DeployAll(descs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("deployed (topological order):", deployed)
	fmt.Println("dependency graph:", node.Graph())

	// A continuous client query on the middle tier.
	evaluations := 0
	queryID, err := node.RegisterQuery("room-a",
		`select count(*) as n, avg(temperature) as t from "room-a"`, 1,
		func(*gsn.Relation) { evaluations++ })
	if err != nil {
		log.Fatal(err)
	}

	pulse := func(n int) {
		for i := 0; i < n; i++ {
			node.Pulse()
		}
	}
	pulse(20)
	rel, err := node.Query(`select count(*) as rows, min(room_a), max(room_b) from "building-alarm"`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tier-3 window after 20 pulses: %s", rel)

	// Hot redeploy of the middle tier while the pipeline runs: shrink
	// the averaging window. Output schema unchanged → the swap keeps
	// the output table, the client query and the downstream edge.
	st, _ := node.SensorStats("room-a")
	rowsBefore := st.OutputLive
	d, err := gsn.ParseDescriptor([]byte(fmt.Sprintf(roomAvg, "a", 3, "a")))
	if err != nil {
		log.Fatal(err)
	}
	if err := node.Redeploy(d); err != nil {
		log.Fatal(err)
	}
	st, _ = node.SensorStats("room-a")
	fmt.Printf("redeployed room-a (window 10 → 3): %d output rows preserved (was %d), query still registered: %v\n",
		st.OutputLive, rowsBefore, evaluations > 0)

	pulse(20)
	st, _ = node.SensorStats("building-alarm")
	fmt.Printf("building-alarm kept deriving through the swap: %d outputs, %d errors, %d client query evaluations on room-a\n",
		st.Outputs, st.Errors, evaluations)

	if err := node.UnregisterQuery(queryID); err != nil {
		log.Fatal(err) // the id survived the redeploy
	}

	// Tearing down the root refuses while dependents exist; cascade
	// removes the whole derivation subtree leaf-first.
	if err := node.Undeploy("raw-a"); err != nil {
		fmt.Println("undeploy raw-a refused as expected:", err)
	}
	removed, err := node.UndeployCascade("raw-a")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cascade removed:", removed)
	fmt.Println("still running:", node.SensorNames())
}
