package main

import (
	"math/rand"

	"fpgapart/hashjoin"
	"fpgapart/internal/joincore"
	"fpgapart/internal/model"
	"fpgapart/partition"
	"fpgapart/platform"
	"fpgapart/workload"
)

// paperPartitions is Figure 9's fan-out.
const paperPartitions = 8192

// paperPadFraction is PAD mode's headroom on the paper relation. The paper
// runs 128M tuples, where 15% headroom is many standard deviations of a
// partition's size; at this benchmark's 2^19 tuples (64 per partition) a
// partition needs six standard deviations, 75%, to stay clear of the
// overflow fallback, which would replace the circuit run by a CPU run.
const paperPadFraction = 0.75

// paperBench is the paper-partition workload: relation R through the FPGA
// partitioner in four modes and the CPU partitioner, and the hybrid join of
// R with S.
type paperBench struct {
	cfg     config
	r, s    *workload.Relation
	rCols   *workload.Relation // R's key column, the VRID modes' input
	fpga    []partition.Partitioner
	cpu     partition.Partitioner
	joinOpt hashjoin.Options

	// References, from independent paths: R's per-partition checksums from
	// the CPU partitioner, the join from hashjoin.CPU.
	refParts []uint32
	refJoin  *hashjoin.Result
	// R and S as the hybrid join's FPGA partitioner writes them, the
	// joincore.BuildProbe layer call's inputs.
	rParts, sParts *partition.Result
}

func modeOptions(mode string) (partition.Format, partition.Layout) {
	f, l := partition.HistMode, partition.RowStore
	if mode == "pad_rid" || mode == "pad_vrid" {
		f = partition.PadMode
	}
	if mode == "hist_vrid" || mode == "pad_vrid" {
		l = partition.ColumnStore
	}
	return f, l
}

func newPaperBench(cfg config, size float64) (bench, error) {
	n := int(float64(cfg.scale.paperTuples) * size)
	gen := workload.NewGenerator(cfg.seed)
	r, err := gen.Relation(workload.Random, 8, n)
	if err != nil {
		return nil, err
	}
	// S draws its keys uniformly from R's, so every S tuple finds a match.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = r.Key(rng.Intn(n))
	}
	s, err := workload.FromKeys(keys, 8)
	if err != nil {
		return nil, err
	}
	b := &paperBench{cfg: cfg, r: r, s: s, rCols: r.ToColumns()}
	for _, m := range modes {
		f, l := modeOptions(m)
		p, err := partition.NewFPGA(partition.FPGAOptions{
			Partitions: paperPartitions, Hash: true, Format: f, Layout: l,
			PadFraction: paperPadFraction, FallbackThreads: threads(),
		})
		if err != nil {
			return nil, err
		}
		b.fpga = append(b.fpga, p)
	}
	if b.cpu, err = partition.NewCPU(partition.CPUOptions{Partitions: paperPartitions, Hash: true, Threads: threads()}); err != nil {
		return nil, err
	}
	b.joinOpt = hashjoin.Options{Partitions: paperPartitions, Hash: true, Threads: threads()}
	return b, nil
}

func (b *paperBench) prepare() error {
	ref, err := partition.NewCPU(partition.CPUOptions{Partitions: paperPartitions, Hash: true, Threads: 1})
	if err != nil {
		return err
	}
	res, err := ref.Partition(b.r)
	if err != nil {
		return err
	}
	b.refParts = checksums(res)
	if b.refJoin, err = hashjoin.CPU(b.r, b.s, b.joinOpt); err != nil {
		return err
	}
	if b.cfg.corruptRef {
		for i := range b.refParts {
			b.refParts[i] ^= 1
		}
		b.refJoin.Checksum ^= 1
	}
	// The hybrid join's partitioner is HIST/RID, the first mode.
	if b.rParts, err = b.fpga[0].Partition(b.r); err != nil {
		return err
	}
	b.sParts, err = b.fpga[0].Partition(b.s)
	return err
}

// checksums returns every partition's order-insensitive checksum.
func checksums(res *partition.Result) []uint32 {
	out := make([]uint32, res.NumPartitions())
	for p := range out {
		out[p] = res.PartitionChecksum(p)
	}
	return out
}

// checkParts counts a failure unless res holds exactly the reference's
// tuples in every partition.
func checkParts(t *tally, what string, res *partition.Result, ref []uint32) {
	if res.NumPartitions() != len(ref) {
		t.fail("%s: %d partitions, want %d", what, res.NumPartitions(), len(ref))
		return
	}
	for p, want := range ref {
		if got := res.PartitionChecksum(p); got != want {
			t.fail("%s: partition %d checksum %#x, want %#x", what, p, got, want)
			return
		}
	}
}

func (b *paperBench) round(tr *tracer, t *tally) {
	var callNS, callAlloc float64
	zeroModes(t)
	for i, m := range modes {
		in := b.r
		if i >= 2 {
			in = b.rCols
		}
		res, c, err := fpgaPartition(tr, b.fpga[i], m, in)
		callNS += float64(c.ns)
		callAlloc += float64(c.alloc)
		t.ops++
		if err != nil {
			t.fail("%s partition: %v", m, err)
			continue
		}
		recordFPGA(t, m, res, c.ns)
		checkParts(t, m, res, b.refParts)
	}

	for i := 0; i < cpuRepeats; i++ {
		c := cpuPartition(tr, t, spanCPULarge, b.cpu, b.r, b.refParts)
		callNS += float64(c.ns)
		callAlloc += float64(c.alloc)
	}

	c := hybridJoin(tr, t, b.r, b.s, b.joinOpt, b.refJoin)
	callNS += float64(c.ns)
	callAlloc += float64(c.alloc)

	t.sums["req.count"] += float64(len(modes) + cpuRepeats + 1)
	t.sums["req.ns"] += callNS
	t.sums["req.alloc"] += callAlloc
}

func (b *paperBench) layer(tr *tracer, t *tally) error {
	if err := newCircuits(tr); err != nil {
		return err
	}
	buildProbe(tr, t, spanBuildProbeLarge, b.rParts, b.sParts, b.r.NumTuples+b.s.NumTuples, threads(), b.refJoin)
	partserverDet(t, nil)
	clusterDet(t, nil)
	reqtraceDet(t, nil)
	return nil
}

// fpgaPartition runs one FPGA partition call in a span named by its mode.
func fpgaPartition(tr *tracer, p partition.Partitioner, mode string, in *workload.Relation) (*partition.Result, cost, error) {
	var res *partition.Result
	c, err := measure(tr, fpgaSpan(mode), func() (err error) {
		res, err = p.Partition(in)
		return err
	})
	return res, c, err
}

// recordFPGA adds one circuit run to the round: host time and work for the
// host rate metrics, and the run's statistics to the deterministic counts.
func recordFPGA(t *tally, mode string, res *partition.Result, ns int64) {
	st := res.Stats
	t.sums["fpga.ns"] += float64(ns)
	t.sums["fpga.cycles"] += float64(st.Cycles)
	t.sums["cycles."+mode] += float64(st.Cycles)
	t.sums["tuples."+mode] += float64(st.TuplesIn)
	// Simulated time from the cycle count: Result.Elapsed of a PAD run that
	// overflowed also holds the CPU fallback's measured time.
	xeon := platform.XeonFPGA()
	t.sums["sim_s."+mode] += float64(st.Cycles) / xeon.FPGAClockHz
	f, l := modeOptions(mode)
	hist, vrid := f == partition.HistMode, l == partition.ColumnStore
	rate := model.ForMode(model.Mode{Hist: hist, VRID: vrid}, xeon, st.TuplesIn).TotalRate()
	t.sums["model_s."+mode] += float64(st.TuplesIn) / rate

	d := t.det
	d["core.cycles."+mode] += float64(st.Cycles)
	d["core.stalls_backpressure."+mode] += float64(st.StallsBackpressure)
	d["core.stalls_hazard."+mode] += float64(st.StallsHazard)
	d["core.hash_bubbles."+mode] += float64(st.HashPipelineBubbles)
	d["core.flush_cycles."+mode] += float64(st.FlushCycles)
	d["qpi.lines_read."+mode] += float64(st.LinesRead)
	d["qpi.lines_written."+mode] += float64(st.LinesWritten)
	t.sums["valid."+mode] += float64(st.TuplesOut)
	t.sums["slots."+mode] += float64(st.LinesWritten) * float64(workload.CacheLineBytes/8)
	d["qpi.useful_line_ratio."+mode] = ratio(t.sums["valid."+mode], t.sums["slots."+mode])
	d["core.sim_mtuples_per_s."+mode] = ratio(t.sums["tuples."+mode], t.sums["sim_s."+mode]) / 1e6
	d["core.model_mtuples_per_s."+mode] = ratio(t.sums["tuples."+mode], t.sums["model_s."+mode]) / 1e6
}

// cpuRepeats is how many times a round makes each CPU partitioner call. The
// CPU partitioner runs one to two orders of magnitude faster than the
// circuit simulator; repeating it lets it be measured over a comparable
// share of the round.
const cpuRepeats = 8

// cpuPartition runs one CPU partitioner call in a span named name and checks
// its output against ref.
func cpuPartition(tr *tracer, t *tally, name string, p partition.Partitioner, rel *workload.Relation, ref []uint32) cost {
	var res *partition.Result
	c, err := measure(tr, name, func() (err error) {
		res, err = p.Partition(rel)
		return err
	})
	t.ops++
	if err != nil {
		t.fail("cpu partition: %v", err)
		return c
	}
	t.sums["cpu.ns"] += float64(c.ns)
	t.sums["cpu.tuples"] += float64(rel.NumTuples)
	checkParts(t, "cpu", res, ref)
	return c
}

// hybridJoin runs one hybrid join and checks it against the CPU join.
func hybridJoin(tr *tracer, t *tally, r, s *workload.Relation, opt hashjoin.Options, ref *hashjoin.Result) cost {
	var res *hashjoin.Result
	c, err := measure(tr, spanHybrid, func() (err error) {
		res, err = hashjoin.Hybrid(r, s, opt)
		return err
	})
	t.ops++
	if err != nil {
		t.fail("hybrid join: %v", err)
		return c
	}
	t.joinTotalMS = append(t.joinTotalMS, ms(res.Total.Seconds()))
	t.joinPartMS = append(t.joinPartMS, ms(res.PartitionTime().Seconds()))
	t.joinBuildProbeMS = append(t.joinBuildProbeMS, ms(res.BuildProbeTime().Seconds()))
	if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
		t.fail("hybrid join: %d matches checksum %#x, CPU join %d matches checksum %#x",
			res.Matches, res.Checksum, ref.Matches, ref.Checksum)
	}
	return c
}

func ms(s float64) float64 { return s * 1e3 }

// circuitFanOuts are the fan-outs whose circuit construction is timed: the
// paper's, and the largest of the serve stream's.
var circuitFanOuts = []int{paperPartitions, 64}

// newCircuitRepeats is how many circuits of each fan-out are built.
const newCircuitRepeats = 16

// newCircuits times the construction of HIST/RID hash partitioners at each
// of circuitFanOuts.
func newCircuits(tr *tracer) error {
	for _, p := range circuitFanOuts {
		for i := 0; i < newCircuitRepeats; i++ {
			if _, err := measure(tr, newCircuitSpan(p), func() error {
				_, err := partition.NewFPGA(partition.FPGAOptions{Partitions: p, Hash: true})
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildProbe times joincore.BuildProbe on already partitioned inputs, in a
// span named name, and checks it against the reference join.
func buildProbe(tr *tracer, t *tally, name string, r, s joincore.Partitions, tuples, threads int, ref *hashjoin.Result) {
	var res *joincore.Result
	_, err := measure(tr, name, func() (err error) {
		res, err = joincore.BuildProbe(r, s, threads)
		return err
	})
	t.ops++
	if err != nil {
		t.fail("build+probe: %v", err)
		return
	}
	if res.Matches != ref.Matches || res.Checksum != ref.Checksum {
		t.fail("build+probe: %d matches checksum %#x, want %d and %#x", res.Matches, res.Checksum, ref.Matches, ref.Checksum)
	}
	t.sums["joincore.tuples"] += float64(tuples)
}
