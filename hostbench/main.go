// Command hostbench measures how fast the circuit simulator and the serving
// tier run on the host. It times calls into each module's exported functions
// from outside, checks every output against an independent reference, and
// prints one JSON result as its last line of output.
//
// Usage (from the repository root):
//
//	python3 hostbench/run.py --workload paper-partition --seed 1 --seconds 10 --trace 0
//	go run ./hostbench --workload serve-churn --seed 7 --seconds 10 --trace 1
//
// Workloads:
//
//   - paper-partition: one uniform 8-byte relation through the FPGA
//     partitioner in Figure 9's four modes at 8192 hash partitions, then the
//     CPU partitioner, then the hybrid join. The circuit simulator does most
//     of the host work; the router and scheduler do none.
//   - serve-static: a stream of small requests on four static shards with no
//     quota, faults, hedging or request tracing, handed to cluster.Run as one
//     batch. Per-request work is small, so routing, the scheduler loop,
//     circuit construction, cpupart and joincore dominate.
//   - serve-churn: the same stream with a hot tenant under a quota, three
//     membership events, R=2 with automatic hedging, one shard's FPGA
//     straggling 8x, and request-trace capture. It exercises migration,
//     the hedge lane and its deadline estimator, quota deferral and trace
//     building.
//
// --trace 0 runs untraced and reports the end-to-end metrics; --trace 1
// alternates untraced and traced rounds (a span around every call, a CPU
// profile) and reports the per-layer metrics. The output is a machine
// fingerprint line, a table of every metric with its unit and the fail ratio,
// and last the JSON result. Every round's virtual-time counts of the modelled
// design must repeat exactly; host times are never fed back into the program.
//
// Host times are the process's CPU time (user and system, all threads), not
// wall-clock time: a rate such as serve_req_per_s is requests per CPU-second.
// On a shared virtual machine the hypervisor steals wall-clock time in
// bursts; CPU time leaves that out, and it charges parallel calls for the
// work of every thread.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scale sizes a run. fullScale is what the command line runs; the self-test
// runs smokeScale.
type scale struct {
	paperTuples   int // tuples in each paper relation
	serveRequests int // requests in the serve stream
	probeEvery    int // every probeEvery-th request is also partitioned and joined directly
	setups        int // set-ups timed per run at least; setup_s is their median
	// setupBudget is how long a run keeps repeating its set-up after the
	// minimum: a short set-up is repeated more often, so its median is steady.
	setupBudget time.Duration
	minRounds   int // timed rounds per run at least, whatever --seconds says
}

var fullScale = scale{
	paperTuples: 1 << 19, serveRequests: 8192, probeEvery: 8,
	setups: 5, setupBudget: time.Second, minRounds: 3,
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
	scale    scale
	// corruptRef flips every reference checksum after it is computed, so
	// that every checked output must fail; the self-test uses it to prove
	// the checks bite.
	corruptRef bool
}

// bench is one workload instance: its generated inputs and the partitioners
// built on them (the set-up), plus the references its outputs are checked
// against.
type bench interface {
	// prepare computes the references; it is timed neither as set-up nor
	// as a round.
	prepare() error
	// round makes the workload's calls once and checks their outputs; a
	// failed call or wrong output is counted in t, not returned.
	round(tr *tracer, t *tally)
	// layer makes the traced run's extra per-layer calls.
	layer(tr *tracer, t *tally) error
}

// workloads maps each workload name to its set-up, which generates the
// inputs from the seed (size scales them) and builds the partitioners.
var workloads = map[string]func(cfg config, size float64) (bench, error){
	"paper-partition": newPaperBench,
	"serve-static":    func(cfg config, size float64) (bench, error) { return newServeBench(cfg, size, false) },
	"serve-churn":     func(cfg config, size float64) (bench, error) { return newServeBench(cfg, size, true) },
}

// tally accumulates one round.
type tally struct {
	ops, failed int
	// sums holds host-time and work accumulators ("fpga.ns",
	// "fpga.cycles", ...).
	sums map[string]float64
	// det holds the round's deterministic counts of the modelled design:
	// the same inputs must give the same values in every round and run.
	det map[string]float64
	// per-join values of hashjoin.Result, in ms.
	joinTotalMS, joinPartMS, joinBuildProbeMS []float64
	// whole-round CPU time, GC pause and GC cycles.
	hostNS, gcPauseNS, gcCycles float64
}

func newTally() *tally {
	return &tally{sums: map[string]float64{}, det: map[string]float64{}}
}

// fail counts one operation whose output is wrong and says why on stderr.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "hostbench: WRONG OUTPUT: "+format+"\n", args...)
}

// threads is the parallelism of every multi-threaded call: all the cores
// the process may use.
func threads() int {
	n := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g < n {
		n = g
	}
	return n
}

func main() {
	cfg := config{scale: fullScale}
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper-partition, serve-static or serve-churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "seconds of timed rounds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&cfg.spansDir, "spans-dir", "", "directory the traced run writes its spans to, as <workload>-seed<seed>.json (none if empty)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "hostbench: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "hostbench: FAILED: %d of %d operations failed or produced wrong output\n", res.Failed, res.Attempted)
		os.Exit(1)
	}
}

// run executes one invocation and returns its result. It writes the machine
// fingerprint and a readable metric table to out.
func run(cfg config, out io.Writer) (*result, error) {
	setup := workloads[cfg.workload]
	fp, err := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "trace": cfg.trace,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fingerprint %s\n", fp)

	var vals map[string]float64
	var all []*tally
	if cfg.trace {
		vals, all, err = runTraced(cfg, setup, out)
	} else {
		vals, all, err = runUntraced(cfg, setup)
	}
	if err != nil {
		return nil, err
	}
	catalog := endToEnd
	if cfg.trace {
		catalog = perLayer
	}
	res := &result{}
	for _, t := range all {
		res.Attempted += t.ops
		res.Failed += t.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Metrics, err = fill(catalog, vals); err != nil {
		return nil, err
	}
	for _, d := range catalog {
		fmt.Fprintf(out, "%-40s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(out, "%-40s %16.6g %s (%d of %d)\n", "fail_ratio",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	return res, nil
}

// setUp builds a workload instance at least times times, and more until
// budget is spent, and returns the last instance with the median set-up time
// in seconds.
func setUp(cfg config, setup func(config, float64) (bench, error), size float64, times int, budget time.Duration) (bench, float64, error) {
	var b bench
	var secs []float64
	for start := time.Now(); len(secs) < times || time.Since(start) < budget; {
		b = nil
		runtime.GC()
		t0 := cpuNS()
		var err error
		if b, err = setup(cfg, size); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, float64(cpuNS()-t0)/1e9)
	}
	if err := b.prepare(); err != nil {
		return nil, 0, fmt.Errorf("references: %w", err)
	}
	return b, median(secs), nil
}

// oneRound runs one timed round of b, traced when tr is not nil.
func oneRound(b bench, tr *tracer) *tally {
	t := newTally()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr.begin("round")
	t0 := cpuNS()
	b.round(tr, t)
	t.hostNS = float64(cpuNS() - t0)
	tr.end()
	runtime.ReadMemStats(&after)
	t.gcPauseNS = float64(after.PauseTotalNs - before.PauseTotalNs)
	t.gcCycles = float64(after.NumGC - before.NumGC)
	return t
}

// rounds runs untraced rounds of b until budget is spent and at least n
// have run.
func rounds(b bench, budget time.Duration, n int) []*tally {
	var out []*tally
	for start := time.Now(); len(out) < n || time.Since(start) < budget; {
		out = append(out, oneRound(b, nil))
	}
	return out
}

// runUntraced measures the end-to-end metrics: set-up several times, one
// untimed warm-up round, then timed rounds for cfg.seconds.
func runUntraced(cfg config, setup func(config, float64) (bench, error)) (map[string]float64, []*tally, error) {
	b, setupS, err := setUp(cfg, setup, 1, cfg.scale.setups, cfg.scale.setupBudget)
	if err != nil {
		return nil, nil, err
	}
	warm := rounds(b, 0, 1)
	ts := rounds(b, time.Duration(cfg.seconds*float64(time.Second)), cfg.scale.minRounds)
	if err := sameDet(append(warm, ts...)); err != nil {
		return nil, nil, err
	}
	var joins []float64
	for _, t := range ts {
		joins = append(joins, t.joinTotalMS...)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{
		"setup_s": setupS,
		"sim_mcycles_per_s": medianOf(ts, func(t *tally) float64 {
			return ratio(t.sums["fpga.cycles"], t.sums["fpga.ns"]) * 1e3
		}),
		"cpu_part_mtuples_per_s": medianOf(ts, func(t *tally) float64 {
			return ratio(t.sums["cpu.tuples"], t.sums["cpu.ns"]) * 1e3
		}),
		"hybrid_join_ms": median(joins),
		"serve_req_per_s": medianOf(ts, func(t *tally) float64 {
			return ratio(t.sums["req.count"], t.sums["req.ns"]) * 1e9
		}),
		"alloc_kb_per_req": medianOf(ts, func(t *tally) float64 {
			return ratio(t.sums["req.alloc"], t.sums["req.count"]) / 1024
		}),
		"peak_rss_mb": rss,
	}
	return vals, append(warm, ts...), nil
}

// runTraced measures the per-layer metrics. After a warm-up round it
// alternates untraced and traced rounds of the full workload, each kind for
// half of cfg.seconds (their gap is the tracing overhead), and makes the
// layer calls traced. Traced rounds and layer calls run under the CPU
// profiler. A workload that calls cluster.Run then runs as many untraced
// rounds at half the stream length, for cluster.cost_growth_2x.
func runTraced(cfg config, setup func(config, float64) (bench, error), out io.Writer) (map[string]float64, []*tally, error) {
	b, _, err := setUp(cfg, setup, 1, 1, 0)
	if err != nil {
		return nil, nil, err
	}
	warm := rounds(b, 0, 1)
	tr := newTracer(cfg.workload, cfg.seed)
	leaves := map[string]int64{}
	var samples int64
	profiled := func(fn func() error) error {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		err := fn()
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		return leafCounts(prof.Bytes(), leaves, &samples)
	}
	var plain, traced []*tally
	budget := time.Duration(cfg.seconds * float64(time.Second) / 2)
	for start := time.Now(); len(plain) < cfg.scale.minRounds || time.Since(start) < budget; {
		plain = append(plain, oneRound(b, nil))
		if err := profiled(func() error {
			traced = append(traced, oneRound(b, tr))
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	layer := newTally()
	if err := profiled(func() error {
		tr.begin("layer")
		defer tr.end()
		return b.layer(tr, layer)
	}); err != nil {
		return nil, nil, err
	}
	b = nil // the full-size inputs may be collected before the half-size set-up

	// The serve workloads repeat at half the stream length, so that
	// cluster.cost_growth_2x shows how cluster.Run's per-request cost grows.
	var half []*tally
	spans := tr.totals()
	if spans[spanCluster].count > 0 {
		hb, _, err := setUp(cfg, setup, 0.5, 1, 0)
		if err != nil {
			return nil, nil, err
		}
		half = rounds(hb, 0, len(plain))
		if err := sameDet(half); err != nil {
			return nil, nil, err
		}
	}

	all := append(append(append([]*tally{}, warm...), plain...), traced...)
	if err := sameDet(all); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(out, "deterministic-counts fnv64 %s\n", detDigest(traced[0], layer))
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
	}

	vals := layerMetrics(spans, traced, layer)
	for _, m := range leafModules {
		vals["self_share."+m] = ratio(float64(leaves[m]), float64(samples))
	}
	vals["self_share.samples"] = float64(samples)
	vals["trace_overhead_pct"] = (ratio(medianOf(traced, hostNS), medianOf(plain, hostNS)) - 1) * 100
	vals["cluster.cost_growth_2x"] = 0
	if half != nil {
		vals["cluster.cost_growth_2x"] = ratio(
			ratio(medianOf(plain, growthNS), plain[0].sums["growth.units"]),
			ratio(medianOf(half, growthNS), half[0].sums["growth.units"]))
	}
	vals["gc.pause_ms"] = medianOf(plain, func(t *tally) float64 { return t.gcPauseNS / 1e6 })
	vals["gc.cycles"] = medianOf(plain, func(t *tally) float64 { return t.gcCycles })
	return vals, append(append(all, layer), half...), nil
}

func hostNS(t *tally) float64   { return t.hostNS }
func growthNS(t *tally) float64 { return t.sums["req.ns"] }

func medianOf(ts []*tally, f func(*tally) float64) float64 {
	var xs []float64
	for _, t := range ts {
		xs = append(xs, f(t))
	}
	return median(xs)
}

// layerMetrics derives the per-layer metrics of the traced rounds from the
// span totals (host time and allocation per call name), the rounds' work
// counters and their deterministic counts.
func layerMetrics(spans map[string]spanTotals, traced []*tally, layer *tally) map[string]float64 {
	sum := func(key string) float64 {
		var v float64
		for _, t := range traced {
			v += t.sums[key]
		}
		return v + layer.sums[key]
	}
	vals := map[string]float64{}
	for k, v := range traced[0].det {
		vals[k] = v
	}
	for k, v := range layer.det {
		vals[k] = v
	}
	for _, m := range modes {
		s := spans[fpgaSpan(m)]
		vals["core.host_ns_per_cycle."+m] = ratio(float64(s.ns), sum("cycles."+m))
		vals["core.alloc_bytes_per_tuple."+m] = ratio(float64(s.allocBytes), sum("tuples."+m))
	}
	perCall := func(name string) float64 {
		s := spans[name]
		return ratio(float64(s.ns), float64(s.count))
	}
	for _, p := range circuitFanOuts {
		vals[fmt.Sprintf("core.new_circuit_us.p%d", p)] = perCall(newCircuitSpan(p)) / 1e3
	}
	// A workload partitions and joins either the paper relation or
	// request-sized relations, so one of each pair is 0.
	vals["cpupart.ns_per_tuple.large"] = ratio(float64(spans[spanCPULarge].ns), sum("cpu.tuples"))
	vals["cpupart.ns_per_tuple.small"] = ratio(float64(spans[spanCPUSmall].ns), sum("cpu.tuples"))
	vals["joincore.ns_per_tuple"] = ratio(float64(spans[spanBuildProbeLarge].ns), sum("joincore.tuples"))
	vals["joincore.ns_per_tuple.small"] = ratio(float64(spans[spanBuildProbeSmall].ns), sum("joincore.tuples"))
	var part, bp []float64
	for _, t := range traced {
		part = append(part, t.joinPartMS...)
		bp = append(bp, t.joinBuildProbeMS...)
	}
	vals["hashjoin.partition_ms"] = median(part)
	vals["hashjoin.build_probe_ms"] = median(bp)
	vals["partserver.host_us_per_job"] = ratio(float64(spans[spanPartserver].ns), sum("partserver.jobs")) / 1e3
	vals["cluster.ring_ns_per_lookup"] = ratio(float64(spans[spanRing].ns), sum("ring.lookups"))
	vals["cluster.replicaset_ns_per_lookup"] = ratio(float64(spans[spanReplicaSet].ns), sum("ring.lookups"))
	vals["reqtrace.analyze_us_per_req"] = ratio(float64(spans[spanAnalyze].ns), sum("reqtrace.traces")) / 1e3
	vals["reqtrace.breakdown_write_us_per_req"] = ratio(float64(spans[spanBreakdown].ns), sum("reqtrace.traces")) / 1e3
	return vals
}

// Span names of the calls the per-layer metrics are derived from.
const (
	spanCPULarge        = "partition.Partition/cpu.large"
	spanCPUSmall        = "partition.Partition/cpu.small"
	spanBuildProbeLarge = "joincore.BuildProbe"
	spanBuildProbeSmall = "joincore.BuildProbe/small"
	spanHybrid          = "hashjoin.Hybrid"
	spanCluster         = "cluster.Run"
	spanPartserver      = "partserver.Run"
	spanRing            = "cluster.Ring.Shard"
	spanReplicaSet      = "cluster.Ring.ReplicaSet"
	spanAnalyze         = "reqtrace.Analyze"
	spanBreakdown       = "reqtrace.WriteBreakdownJSON"
	spanFPGAPrefix      = "partition.Partition/fpga."
)

func fpgaSpan(mode string) string { return spanFPGAPrefix + mode }

func newCircuitSpan(partitions int) string { return fmt.Sprintf("partition.NewFPGA/p%d", partitions) }

// sameDet fails unless every round reported the same deterministic counts:
// rounds repeat identical inputs, so any difference is a determinism bug in
// the program, not noise.
func sameDet(ts []*tally) error {
	for i := 1; i < len(ts); i++ {
		if err := equalDet(ts[0].det, ts[i].det); err != nil {
			return fmt.Errorf("deterministic counts differ between rounds 0 and %d: %w", i, err)
		}
	}
	return nil
}

func equalDet(a, b map[string]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d counts vs %d", len(a), len(b))
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return fmt.Errorf("%s: %v vs %v", k, v, w)
		}
	}
	return nil
}

// detDigest hashes the deterministic counts of a traced round and the layer
// calls in name order, so two traced runs of one seed can be compared by one
// printed value.
func detDigest(ts ...*tally) string {
	h := fnv.New64a()
	for _, t := range ts {
		keys := make([]string, 0, len(t.det))
		for k := range t.det {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(t.det[k], 'g', -1, 64))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak rss: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("peak rss: no VmHWM in /proc/self/status")
}
