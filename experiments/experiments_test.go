package experiments

import (
	"bytes"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"fpgapart/platform"
	"fpgapart/workload"
)

// timingRepeats is how many interleaved measurements medianInterleaved
// takes per side.
const timingRepeats = 7

// medianInterleaved measures two sides of a host-timing comparison
// timingRepeats times each, alternating which side runs first, and returns
// each side's median: measure(false) is the first side, measure(true) the
// second. A single sample, or the minimum of several, is decided by whichever
// side happens to catch an idle moment on a busy host; the median is not.
func medianInterleaved(measure func(second bool) float64) (first, second float64) {
	var samples [2][timingRepeats]float64
	for i := 0; i < timingRepeats; i++ {
		for _, side := range [2]bool{i%2 == 1, i%2 == 0} {
			// Start each sample on a collected heap, so that a GC cycle
			// owed to the previous sample's garbage does not land in it.
			runtime.GC()
			k := 0
			if side {
				k = 1
			}
			samples[k][i] = measure(side)
		}
	}
	for k := range samples {
		sort.Float64s(samples[k][:])
	}
	return samples[0][timingRepeats/2], samples[1][timingRepeats/2]
}

// tiny is a configuration small enough for unit tests.
func tiny() Config {
	return Config{Scale: 1.0 / 1024, Seed: 7, MaxThreads: 2}
}

func TestAllExperimentsRenderSomething(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(tiny(), &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", e.ID)
		}
		if !strings.Contains(buf.String(), "===") {
			t.Errorf("%s missing header", e.ID)
		}
	}
}

func TestFindExperiment(t *testing.T) {
	if _, err := Find("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 1.0/16 || c.Seed != 42 || c.MaxThreads < 1 {
		t.Errorf("defaults: %+v", c)
	}
	sweep := Config{MaxThreads: 4}.threadSweep()
	if len(sweep) != 3 || sweep[2] != 4 {
		t.Errorf("threadSweep(4) = %v", sweep)
	}
	if got := (Config{MaxThreads: 1}).threadSweep(); len(got) != 1 || got[0] != 1 {
		t.Errorf("threadSweep(1) = %v", got)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	res, err := RunTable1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]bool]float64{
		{false, false}: 0.1381, // CPU writer, sequential
		{false, true}:  1.1537,
		{true, false}:  0.1533, // FPGA writer
		{true, true}:   2.4876,
	}
	for _, r := range res.Rows {
		k := [2]bool{r.LastWriter == platform.FPGASocket, r.Random}
		if math.Abs(r.Seconds-want[k]) > 1e-6 {
			t.Errorf("row %+v: %v s, want %v", k, r.Seconds, want[k])
		}
	}
	if res.RandPenalty < 2 || res.RandPenalty > 2.3 {
		t.Errorf("RandPenalty = %v", res.RandPenalty)
	}
}

func TestFigure2ShapeAndHostMeasurement(t *testing.T) {
	res, err := RunFigure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 11 {
		t.Fatalf("%d points, want 11", len(res.Points))
	}
	for i, p := range res.Points {
		if p.CPUAlone <= p.CPUInterfered || p.FPGAAlone <= p.FPGAInterfered {
			t.Errorf("point %d: interference not reducing bandwidth", i)
		}
		if p.HostMeasured <= 0 {
			t.Errorf("point %d: host measurement missing", i)
		}
	}
	// CPU bandwidth grows with read fraction.
	if res.Points[10].CPUAlone <= res.Points[0].CPUAlone {
		t.Error("CPU curve not increasing with read fraction")
	}
}

func TestFigure3RadixVsHashRobustness(t *testing.T) {
	res, err := RunFigure3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 8 {
		t.Fatalf("%d series, want 8", len(res.Series))
	}
	byKey := map[string]Figure3Series{}
	for _, s := range res.Series {
		method := "radix"
		if s.Hash {
			method = "hash"
		}
		byKey[s.Distribution.String()+"/"+method] = s
	}
	// Hash partitioning is balanced for every distribution (Figure 3b) —
	// with ~128 tuples/partition, Poisson noise allows ≈1.5× at the tail.
	for _, d := range []string{"linear", "random", "grid", "reverse-grid"} {
		if im := byKey[d+"/hash"].Imbalance; im > 1.7 {
			t.Errorf("hash on %s imbalance %.2f, want near 1", d, im)
		}
	}
	// Radix partitioning degenerates on grid keys (Figure 3a): grid leaves
	// a large share of partitions empty and doubles the load elsewhere;
	// reverse grid floods a handful of partitions.
	grid := byKey["grid/radix"]
	if grid.Imbalance < 1.8 || grid.EmptyParts == 0 {
		t.Errorf("radix on grid: imbalance %.2f, empty %d — expected skew", grid.Imbalance, grid.EmptyParts)
	}
	rev := byKey["reverse-grid/radix"]
	if rev.Imbalance < 10 || rev.EmptyParts == 0 {
		t.Errorf("radix on reverse grid: imbalance %.2f, empty %d — expected severe skew", rev.Imbalance, rev.EmptyParts)
	}
	// Radix on linear keys is perfectly balanced.
	if byKey["linear/radix"].Imbalance > 1.05 {
		t.Errorf("radix on linear imbalance %.2f", byKey["linear/radix"].Imbalance)
	}
}

func TestFigure4ProducesAllSeries(t *testing.T) {
	res, err := RunFigure4(tiny())
	if err != nil {
		t.Fatal(err)
	}
	sweep := tiny().WithDefaults().threadSweep()
	if want := 5 * len(sweep); len(res.Points) != want {
		t.Fatalf("%d points, want %d", len(res.Points), want)
	}
	for _, p := range res.Points {
		if p.MTuplesPerS <= 0 {
			t.Errorf("non-positive throughput: %+v", p)
		}
	}
}

func TestTable2RowsMatchPaper(t *testing.T) {
	res, err := RunTable2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if math.Abs(res.Rows[0].BRAMPct-76) > 3 {
		t.Errorf("8B BRAM = %v%%, paper 76%%", res.Rows[0].BRAMPct)
	}
}

func TestFigure8ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 64 MB per tuple width")
	}
	res, err := RunFigure8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	for i := 1; i < 4; i++ {
		if res.Points[i].MTuplesPerS >= res.Points[i-1].MTuplesPerS {
			t.Error("tuples/s should fall with width")
		}
	}
	// Model tracks simulation within 25% even at tiny scale.
	for _, p := range res.Points {
		if p.ModelMTuplesPerS <= 0 {
			t.Errorf("missing model prediction at %dB", p.TupleWidth)
		}
		rel := math.Abs(p.MTuplesPerS-p.ModelMTuplesPerS) / p.ModelMTuplesPerS
		if rel > 0.20 {
			t.Errorf("width %d: sim %f vs model %f (%.0f%% apart)",
				p.TupleWidth, p.MTuplesPerS, p.ModelMTuplesPerS, rel*100)
		}
	}
}

func TestModelValidationTable(t *testing.T) {
	res, err := RunModelValidation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if math.Abs(res.CircuitRate-1.6e9) > 1e6 {
		t.Errorf("circuit rate %v", res.CircuitRate)
	}
}

func TestFigure10ConsistentAcrossFanOuts(t *testing.T) {
	res, err := RunFigure10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// At test scale the fixed flush cost dominates the FPGA time, so the
	// paper's flatness claim is asserted at real scale in core's tests and
	// recorded in EXPERIMENTS.md; here the invariants are correctness ones:
	// identical match counts and positive phase times for every fan-out.
	var matches []int64
	for _, p := range res.Points {
		matches = append(matches, p.Matches)
		if p.PartitionSec <= 0 || p.BuildProbeSec <= 0 || p.TotalSec <= 0 {
			t.Errorf("non-positive phase times: %+v", p)
		}
		if p.System == "fpga-PAD/RID" && p.ModelPartitionSec <= 0 {
			t.Errorf("missing model prediction: %+v", p)
		}
	}
	for _, m := range matches[1:] {
		if m != matches[0] {
			t.Fatalf("match counts differ across configurations: %v", matches)
		}
	}
}

func TestFigure11VRIDPartitionsFaster(t *testing.T) {
	res, err := RunFigure11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Results[workload.WorkloadA]
	var rid, vrid float64
	for _, p := range pts {
		if p.Threads != 1 {
			continue
		}
		switch p.System {
		case "fpga-PAD/RID":
			rid = p.PartitionSec
		case "fpga-PAD/VRID":
			vrid = p.PartitionSec
		}
	}
	if vrid <= 0 || rid <= 0 || vrid >= rid {
		t.Errorf("VRID partitioning (%.4fs) should beat RID (%.4fs)", vrid, rid)
	}
}

func TestFigure12HashHelpsGridKeys(t *testing.T) {
	res, err := RunFigure12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// On workload E (reverse grid), hash partitioning must give a faster
	// build+probe than radix partitioning (paper: ~35% at 10 threads).
	pts := res.Results[workload.WorkloadE]
	var radixBP, hashBP float64
	maxT := tiny().MaxThreads
	for _, p := range pts {
		if p.Threads != maxT {
			continue
		}
		switch p.System {
		case "cpu-radix":
			radixBP = p.BuildProbeSec
		case "cpu-hash":
			hashBP = p.BuildProbeSec
		}
	}
	if hashBP <= 0 || radixBP <= 0 {
		t.Fatal("missing build+probe measurements")
	}
	// One wall-clock sample per side flakes under load, so the comparison
	// takes each side's median of several interleaved repetitions of the
	// same joins.
	_, in, err := figure12Input(tiny(), workload.WorkloadE)
	if err != nil {
		t.Fatal(err)
	}
	radixBP, hashBP = medianInterleaved(func(hash bool) float64 {
		r, err := figure12CPUJoin(in, maxT, hash)
		if err != nil {
			t.Fatal(err)
		}
		return r.BuildProbeTime().Seconds()
	})
	if hashBP >= radixBP {
		t.Errorf("hash build+probe (%.4fs) not faster than radix (%.4fs) on reverse-grid keys", hashBP, radixBP)
	}
}

func TestFigure13HistNeverFallsBack(t *testing.T) {
	res, err := RunFigure13(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 14 {
		t.Fatalf("%d points, want 14", len(res.Points))
	}
	for i, p := range res.Points {
		if p.FellBack {
			t.Errorf("HIST-mode join fell back at zipf %.2f", res.Factors[i])
		}
		if p.Matches <= 0 {
			t.Errorf("no matches at zipf %.2f (%s)", res.Factors[i], p.System)
		}
	}
	// CPU and hybrid must agree on matches per factor.
	for i := 0; i+1 < len(res.Points); i += 2 {
		if res.Points[i].Matches != res.Points[i+1].Matches {
			t.Errorf("zipf %.2f: CPU %d matches, hybrid %d",
				res.Factors[i], res.Points[i].Matches, res.Points[i+1].Matches)
		}
	}
}
