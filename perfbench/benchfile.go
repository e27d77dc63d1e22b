package main

import (
	"encoding/json"
	"os"
	"strings"
)

// runSeconds is the measurement window BENCHMARK.json declares for a run.
// Throughput on a shared 2-CPU host drifts over tens of seconds, so a run
// measures 50 s rather than the 15 s its minimum sample counts need; with
// two workloads the driver's 48 runs still fit its time limit.
const runSeconds = 50

// fileMetric is one metric entry of BENCHMARK.json.
type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchFile is BENCHMARK.json.
type benchFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

// buildBenchFile derives BENCHMARK.json from the catalog.
func buildBenchFile() benchFile {
	c := benchFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	listed := listedWorkloads()
	for _, w := range workloads {
		if listed[w.Name] {
			c.Workloads = append(c.Workloads, fileWorkload{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		bound := d.Bound
		c.EndToEnd = append(c.EndToEnd, fileMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		if reportedBy(d, listed) {
			c.PerLayer = append(c.PerLayer, fileMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
		}
	}
	return c
}

// listedWorkloads returns the names of the workloads BENCHMARK.json lists.
func listedWorkloads() map[string]bool {
	listed := map[string]bool{}
	for _, w := range workloads {
		if w.Unlisted == "" {
			listed[w.Name] = true
		}
	}
	return listed
}

// reportedBy says whether any of the given workloads reports metric d.
func reportedBy(d metricDef, names map[string]bool) bool {
	if d.From == "" {
		return len(names) > 0
	}
	for _, w := range strings.Split(d.From, ", ") {
		if names[w] {
			return true
		}
	}
	return false
}

func benchFileJSON() ([]byte, error) {
	data, err := json.MarshalIndent(buildBenchFile(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// writeBenchFile writes BENCHMARK.json.
func writeBenchFile(path string) error {
	data, err := benchFileJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
