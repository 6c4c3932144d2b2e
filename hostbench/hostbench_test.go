package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"fpgapart/partition"
	"fpgapart/workload"
)

// smokeScale is every workload at its smallest size: one set-up and two
// rounds (so that the rounds' deterministic counts are compared) of a few
// requests or a few thousand tuples.
var smokeScale = scale{paperTuples: 1 << 12, serveRequests: 96, probeEvery: 4, setups: 1, minRounds: 2}

func smokeRun(t *testing.T, name string, trace, corrupt bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(config{workload: name, seed: 3, trace: trace, scale: smokeScale, corruptRef: corrupt}, &out)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", name, trace, err)
	}
	return res, out.String()
}

func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestEveryMetricEmitted runs every workload untraced and traced at its
// smallest size and checks that each emits exactly its catalog, with units,
// and that every output is correct.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, _ := smokeRun(t, name, trace, false)
			catalog := endToEnd
			if trace {
				catalog = perLayer
			}
			if len(res.Metrics) != len(catalog) {
				t.Errorf("%s (trace %v): %d metrics, catalog has %d", name, trace, len(res.Metrics), len(catalog))
			}
			for _, d := range catalog {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %q", name, trace, d.name, m, d.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// TestCorruptReferenceFails proves the output checks bite: with every
// reference checksum flipped, every workload reports failures.
func TestCorruptReferenceFails(t *testing.T) {
	for _, name := range workloadNames() {
		res, _ := smokeRun(t, name, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted references gave correct %v, %d of %d failed", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestTracedCountsRepeat runs each workload's traced run twice with one seed:
// the deterministic counts must hash to the same digest.
func TestTracedCountsRepeat(t *testing.T) {
	digest := regexp.MustCompile(`deterministic-counts fnv64 ([0-9a-f]+)`)
	for _, name := range workloadNames() {
		_, a := smokeRun(t, name, true, false)
		_, b := smokeRun(t, name, true, false)
		da, db := digest.FindStringSubmatch(a), digest.FindStringSubmatch(b)
		if da == nil || db == nil || da[1] != db[1] {
			t.Errorf("%s: deterministic counts differ between two traced runs: %v vs %v", name, da, db)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON holds the metric catalogs and workload
// names equal to the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, catalog %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], catalog %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
}

// TestLeafModule pins the symbol-to-module bucketing of the profile shares.
func TestLeafModule(t *testing.T) {
	for sym, want := range map[string]string{
		"fpgapart/internal/core.(*Circuit).step": "core",
		"fpgapart/cluster.(*runState).hedge":     "cluster",
		"fpgapart/internal/fpga.Reg[...].Shift":  "fpga",
		"runtime.memmove":                        "runtime",
		"internal/runtime/maps.(*Map).Get":       "runtime",
		"sort.Slice":                             "other",
		"fpgapart/hashjoin.Join":                 "other",
		"":                                       "other",
	} {
		if got := moduleOf(sym); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestFallbackCountsRepeat: a PAD run that overflows falls back to the CPU
// partitioner, whose measured time must not reach the deterministic counts.
func TestFallbackCountsRepeat(t *testing.T) {
	keys := make([]uint32, 1024)
	for i := range keys {
		keys[i] = 7 // one partition takes every tuple and overflows its padding
	}
	rel, err := workload.FromKeys(keys, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := partition.NewFPGA(partition.FPGAOptions{Partitions: 64, Hash: true, Format: partition.PadMode})
	if err != nil {
		t.Fatal(err)
	}
	var dets []map[string]float64
	for i := 0; i < 2; i++ {
		res, c, err := fpgaPartition(nil, p, "pad_rid", rel)
		if err != nil {
			t.Fatal(err)
		}
		if !res.FellBack() {
			t.Fatal("PAD run did not overflow; the test needs the fallback path")
		}
		tl := newTally()
		recordFPGA(tl, "pad_rid", res, c.ns)
		dets = append(dets, tl.det)
	}
	if err := equalDet(dets[0], dets[1]); err != nil {
		t.Errorf("deterministic counts of two identical fallback runs differ: %v", err)
	}
}
