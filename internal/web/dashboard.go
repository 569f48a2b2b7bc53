package web

import (
	"fmt"
	"html/template"
	"net/http"
	"strings"

	"gsn/internal/stream"
)

// dashboardTemplate renders the container overview page: deployed
// sensors, their stats, and links to plots — the "web-based management
// tools" of the paper's light-weight implementation goal.
var dashboardTemplate = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html>
<head>
<title>GSN — {{.Node}}</title>
<style>
  body { font-family: sans-serif; margin: 2em; color: #222; }
  h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.5em; }
  table { border-collapse: collapse; }
  th, td { border: 1px solid #bbb; padding: 4px 10px; text-align: left; }
  th { background: #eee; }
  .num { text-align: right; }
  .healthy { color: #1a7f37; } .degraded { color: #b8860b; } .failed { color: #c0392b; font-weight: bold; }
  footer { margin-top: 2em; font-size: 0.8em; color: #777; }
</style>
</head>
<body>
<h1>GSN container: {{.Node}}</h1>
<p>{{len .Sensors}} virtual sensor(s) deployed · <a href="/api/metrics">metrics</a> · <a href="/api/directory">directory</a> · <a href="/api/graph">graph</a></p>
<p>storage history tier: {{.Storage}}</p>
<p>p2p replication: {{.P2P}}</p>
<table>
<tr><th>Virtual sensor</th><th>Health</th><th>Fields</th><th>Consumes</th><th class="num">Triggers</th><th class="num">Outputs</th><th class="num">Errors</th><th class="num">Window</th><th>Plot</th></tr>
{{range .Sensors}}
<tr>
  <td><a href="/api/sensors/{{.Name}}">{{.Name}}</a></td>
  <td class="{{.Health}}"{{if .HealthReason}} title="{{.HealthReason}}"{{end}}>{{.Health}}</td>
  <td>{{.FieldList}}</td>
  <td>{{if .Upstreams}}{{.Upstreams}}{{else}}&mdash;{{end}}</td>
  <td class="num">{{.Stats.Triggers}}</td>
  <td class="num">{{.Stats.Outputs}}</td>
  <td class="num">{{.Stats.Errors}}</td>
  <td class="num">{{.Stats.OutputLive}}</td>
  <td>{{if .PlotField}}<a href="/plot/{{.Name}}.svg?field={{.PlotField}}">{{.PlotField}}</a>{{else}}&mdash;{{end}}</td>
</tr>
{{end}}
</table>
<footer>Global Sensor Networks (GSN) middleware — Go reproduction of Aberer, Hauswirth &amp; Salehi, VLDB 2006.</footer>
</body>
</html>`))

type dashboardSensor struct {
	Name         string
	Health       string
	HealthReason string
	FieldList    string
	Upstreams    string // local composition inputs (dependency graph)
	PlotField    string
	Stats        struct {
		Triggers, Outputs, Errors uint64
		OutputLive                int
	}
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	var view struct {
		Node    string
		Storage string
		P2P     string
		Sensors []dashboardSensor
	}
	view.Node = s.container.Name()
	snap := s.container.MetricsSnapshot()
	view.Storage = fmt.Sprintf("%v pages read · %v pages written · %v pool hits · %v pool evictions · %v pages folded · %v pages decoded · %v checkpoints · %v wal reopens · %v degraded sensor(s)",
		snap["pages_read"], snap["pages_written"], snap["pool_hits"], snap["pool_evictions"], snap["pages_folded"],
		snap["pages_decoded"], snap["checkpoints_total"], snap["wal_reopens_total"], snap["degraded_sensors"])
	view.P2P = fmt.Sprintf("%v fetches · %v failures · %v re-syncs · %v epoch mismatches · %v duplicates dropped",
		snap["p2p_fetches_total"], snap["p2p_fetch_failures_total"], snap["p2p_resyncs_total"],
		snap["p2p_epoch_mismatches"], snap["p2p_duplicates_dropped"])
	graph := s.container.Graph()
	for _, vs := range s.container.Sensors() {
		var ds dashboardSensor
		ds.Name = vs.Name()
		health := vs.Health()
		ds.Health = health.State.String()
		ds.HealthReason = health.Reason
		ds.Upstreams = strings.Join(graph[vs.Name()], ", ")
		var fields []string
		for _, f := range vs.OutputSchema().Fields() {
			fields = append(fields, f.Name)
			if ds.PlotField == "" && (f.Type == stream.TypeInt || f.Type == stream.TypeFloat) {
				ds.PlotField = f.Name
			}
		}
		ds.FieldList = strings.Join(fields, ", ")
		st := vs.Stats()
		ds.Stats.Triggers = st.Triggers
		ds.Stats.Outputs = st.Outputs
		ds.Stats.Errors = st.Errors
		ds.Stats.OutputLive = st.OutputLive
		view.Sensors = append(view.Sensors, ds)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := dashboardTemplate.Execute(w, view); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handlePlot renders a numeric field of a sensor's window as an SVG
// line chart (the paper's §5: "visualization systems for plotting
// data").
func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimSuffix(r.PathValue("file"), ".svg")
	vs, ok := s.container.Sensor(name)
	if !ok {
		http.Error(w, "unknown virtual sensor", http.StatusNotFound)
		return
	}
	field := r.URL.Query().Get("field")
	if field == "" {
		http.Error(w, "missing field parameter", http.StatusBadRequest)
		return
	}
	schema := vs.OutputSchema()
	fi := schema.IndexOf(field)
	if fi < 0 {
		http.Error(w, "unknown field", http.StatusNotFound)
		return
	}
	limit := 200
	elems := vs.Output().Last(limit)
	var points []float64
	for _, e := range elems {
		switch v := e.Value(fi).(type) {
		case int64:
			points = append(points, float64(v))
		case float64:
			points = append(points, v)
		}
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Write(renderLineSVG(vs.Name()+"."+stream.CanonicalName(field), points))
}

// renderLineSVG draws a minimal line chart: axes, polyline, min/max
// labels. 600×240 viewport with 40px margins.
func renderLineSVG(title string, points []float64) []byte {
	const (
		width, height    = 600, 240
		marginX, marginY = 45, 25
	)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, width, height)
	fmt.Fprintf(&b, `<text x="%d" y="15" font-size="12" font-family="sans-serif">%s</text>`,
		marginX, template.HTMLEscapeString(title))

	plotW := width - 2*marginX
	plotH := height - 2*marginY
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="none" stroke="#999"/>`,
		marginX, marginY, plotW, plotH)

	if len(points) >= 1 {
		minV, maxV := points[0], points[0]
		for _, p := range points {
			if p < minV {
				minV = p
			}
			if p > maxV {
				maxV = p
			}
		}
		span := maxV - minV
		if span == 0 {
			span = 1
		}
		var coords []string
		for i, p := range points {
			x := float64(marginX)
			if len(points) > 1 {
				x += float64(i) / float64(len(points)-1) * float64(plotW)
			}
			y := float64(marginY) + (1-(p-minV)/span)*float64(plotH)
			coords = append(coords, fmt.Sprintf("%.1f,%.1f", x, y))
		}
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="#0066cc" stroke-width="1.5"/>`,
			strings.Join(coords, " "))
		fmt.Fprintf(&b, `<text x="4" y="%d" font-size="10" font-family="sans-serif">%.4g</text>`,
			marginY+8, maxV)
		fmt.Fprintf(&b, `<text x="4" y="%d" font-size="10" font-family="sans-serif">%.4g</text>`,
			marginY+plotH, minV)
	} else {
		fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="12" font-family="sans-serif" fill="#999">no data</text>`,
			width/2-30, height/2)
	}
	b.WriteString(`</svg>`)
	return []byte(b.String())
}
