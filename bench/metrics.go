package main

import (
	_ "embed"
	"encoding/json"
	"sync"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEndMetrics are measured on every workload, each on that workload's
// primary operation (see README.md): a cold /synthesize row, a Fig. 4
// curve, a warm /synthesize hit, a job from submit to done.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ok_share", "share", "higher", 0.01},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_geomean_ms", "ms", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
}

// layerDef is one per-layer metric with the end-to-end metrics it should
// move, the workloads it should move them on, and the workloads on which
// the prediction is no change.
type layerDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
	FlatOn []string `json:"flat_on"`
	What   string   `json:"what"`
}

//go:embed layers.json
var layersJSON []byte

// layerDefs parses layers.json once; the file is embedded, so a parse
// error is a build defect the tests catch.
var layerDefs = sync.OnceValue(func() []layerDef {
	var defs []layerDef
	if err := json.Unmarshal(layersJSON, &defs); err != nil {
		panic("layers.json: " + err.Error())
	}
	return defs
})

// unitOf returns the declared unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range layerDefs() {
		if d.Name == name {
			return d.Unit
		}
	}
	return "?"
}
