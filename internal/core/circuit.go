package core

import (
	"fmt"
	"time"

	"fpgapart/internal/fpga"
	"fpgapart/internal/hashutil"
	"fpgapart/internal/memsys"
	"fpgapart/internal/qpi"
	"fpgapart/platform"
	"fpgapart/workload"
)

// hashPipelineDepth is the latency of the hash function module in clock
// cycles: murmur hashing takes 5 pipeline stages (Code 3), 10 ns at 200 MHz.
const hashPipelineDepth = 5

// tup is one tuple in flight through the circuit, carrying its resolved
// partition index from the hash module onward.
type tup struct {
	words [8]uint64 // up to one full 64-byte tuple
	part  uint32
}

// group is one internal cycle's worth of tuples: the lanes of a cache line
// moving through the (lockstep) hash pipelines.
type group struct {
	t [8]tup
	n int
}

// outLine is an assembled cache line traveling from a write combiner to the
// write-back module: the partition it belongs to and how many of its tuple
// slots are valid (the rest carry dummy keys).
type outLine struct {
	words  [8]uint64
	part   uint32
	valid  uint8
	single bool // no-write-combiner ablation: one raw tuple, RMW write-back
}

// Circuit is a synthesized partitioner configuration bound to a platform
// link. Create one with NewCircuit and call Partition per relation; a
// Circuit is not safe for concurrent use (it is one piece of hardware).
type Circuit struct {
	cfg     Config
	clockHz float64
	curve   platform.BandwidthCurve
}

// NewCircuit validates cfg and binds it to an FPGA clock and a QPI bandwidth
// curve (use platform.XeonFPGA().FPGAAlone for the paper's end-to-end
// numbers and platform.RawFPGA().FPGAAlone for the raw-throughput wrapper).
func NewCircuit(cfg Config, clockHz float64, curve platform.BandwidthCurve) (*Circuit, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clockHz <= 0 {
		return nil, fmt.Errorf("core: clock %v Hz", clockHz)
	}
	return &Circuit{cfg: cfg, clockHz: clockHz, curve: curve}, nil
}

// Config returns the circuit's (defaulted) configuration.
func (c *Circuit) Config() Config { return c.cfg }

// Partition runs the circuit over rel and returns the partitioned output and
// run statistics. In PAD mode the error is ErrPartitionOverflow if a
// partition outgrew its padded size; stats are still returned for the failed
// run (the fallback decision needs them).
func (c *Circuit) Partition(rel *workload.Relation) (*Output, *Stats, error) {
	if c.cfg.Layout == VRID && rel.Layout != workload.ColumnLayout {
		return nil, nil, fmt.Errorf("core: VRID mode requires a column-layout relation, got %v", rel.Layout)
	}
	if c.cfg.Layout == RID && rel.Layout != workload.RowLayout {
		return nil, nil, fmt.Errorf("core: RID mode requires a row-layout relation, got %v", rel.Layout)
	}
	if c.cfg.Layout == RID && rel.Width != c.cfg.TupleWidth {
		return nil, nil, fmt.Errorf("core: circuit synthesized for %dB tuples, relation has %dB", c.cfg.TupleWidth, rel.Width)
	}
	ep, err := qpi.New(c.clockHz, c.curve)
	if err != nil {
		return nil, nil, err
	}
	r := &run{
		cfg:   c.cfg,
		rel:   rel,
		ep:    ep,
		clock: c.clockHz,
		stats: &Stats{},
	}
	if err := r.setup(); err != nil {
		return nil, nil, err
	}
	err = r.execute()
	r.finishStats()
	if r.pr != nil {
		r.pr.finish(r)
	}
	if err != nil {
		return nil, r.stats, err
	}
	return r.out, r.stats, nil
}

// run holds the mutable state of one partitioning execution.
type run struct {
	cfg   Config
	rel   *workload.Relation
	ep    *qpi.Endpoint
	clock float64
	stats *Stats
	pr    *probe // nil unless cfg.Trace is set

	lanes int // tuples per internal cycle
	wpt   int // output words per tuple
	tpl   int // output tuples per line
	radix uint
	dummy uint32
	total int64 // input tuples

	// Input feed state.
	next int64
	// comp, when non-nil, replaces rel as the input: an RLE decompressor
	// stage in front of the hash pipelines (see compressed.go).
	comp *rleFeed
	// compPending is the number of compressed lines still to fetch for the
	// next group; -1 means "not yet computed".
	compPending int64

	// Hash pipelines (lockstep across lanes).
	pipe *fpga.Pipe[group]

	// Per-lane first-stage FIFOs and write combiners.
	fifo1 []*fpga.FIFO[tup]
	comb  []*combiner

	// Write-back.
	rr    int
	final *fpga.FIFO[outLine]

	// Destination bookkeeping (the two BRAMs of Section 4.3).
	capLines []int64
	used     []int64
	counts   []int64
	hist     []int64 // HIST mode first-pass histogram

	out *Output

	// Shared-memory model.
	region *memsys.Region
	ptable *memsys.PageTable
	outOff int64 // byte offset of the output buffer in the region
}

func (r *run) setup() error {
	cfg := r.cfg
	r.lanes = cfg.Lanes()
	r.wpt = cfg.OutputTupleWidth() / 8
	r.tpl = 64 / cfg.OutputTupleWidth()
	r.radix = cfg.RadixBits()
	r.dummy = cfg.DummyKeyValue()
	if r.comp != nil {
		r.total = r.comp.n
		r.compPending = -1
	} else {
		r.total = int64(r.rel.NumTuples)
	}

	r.pipe = fpga.NewPipe[group](hashPipelineDepth)
	r.fifo1 = make([]*fpga.FIFO[tup], r.lanes)
	r.comb = make([]*combiner, r.lanes)
	for i := range r.fifo1 {
		r.fifo1[i] = fpga.NewFIFO[tup](cfg.Stage1FIFODepth)
		r.comb[i] = newCombiner(cfg, r.lanes, r.wpt, r.dummy)
	}
	r.final = fpga.NewFIFO[outLine](8)

	p := cfg.NumPartitions
	r.capLines = make([]int64, p)
	r.used = make([]int64, p)
	r.counts = make([]int64, p)
	r.hist = make([]int64, p)
	if cfg.Trace != nil {
		r.pr = newProbe(cfg.Trace, r)
	}
	return nil
}

// execute runs the configured passes.
func (r *run) execute() error {
	if r.cfg.Format == HIST {
		r.histogramPass()
		r.prefixSum()
	} else {
		r.padBases()
	}
	r.allocate()
	if err := r.partitionPass(); err != nil {
		return err
	}
	if err := r.flushPass(); err != nil {
		return err
	}
	if got, want := r.out.TotalTuples(), r.total; got != want {
		return fmt.Errorf("core: internal error: %d tuples out, %d in", got, want)
	}
	if !r.cfg.DisableForwarding && r.stats.StallsHazard != 0 {
		return fmt.Errorf("core: internal error: %d hazard stalls with forwarding enabled", r.stats.StallsHazard)
	}
	return nil
}

// inputReadFrac returns the QPI traffic mix of the main partitioning pass.
func (r *run) inputReadFrac() float64 {
	if r.cfg.DisableWriteCombiner {
		// Per tuple: 1/lanes input line read + 1 RMW line read + 1 line
		// write. Read bytes : write bytes = (1/lanes + 1) : 1.
		rd := 1.0/float64(r.lanes) + 1
		return rd / (rd + 1)
	}
	if r.comp != nil {
		// Reads only the compressed bytes; writes 8 B per tuple.
		cb := float64(r.comp.col.CompressedBytes())
		if total := cb + 8*float64(r.total); total > 0 {
			return cb / total
		}
		return 0.5 // empty column: mix is irrelevant
	}
	if r.cfg.Layout == VRID {
		// Reads 4 B per tuple, writes 8 B per tuple: r = 0.5.
		return 1.0 / 3.0
	}
	// RID single pass: reads and writes the same volume: r = 1.
	return 0.5
}

// histogramPass streams the relation through the hash pipelines once,
// counting tuples per partition. No data is written back (Section 4.5).
func (r *run) histogramPass() {
	r.ep.SetMix(1)
	start := r.stats.Cycles
	r.next = 0
	for {
		r.ep.Tick()
		if out := r.pipe.Advance(r.nextGroup(false)); out != nil {
			for i := 0; i < out.n; i++ {
				r.hist[out.t[i].part]++
			}
		}
		r.stats.Cycles++
		if r.pr != nil {
			r.pr.maybeSample(r)
		}
		if r.next >= r.total && r.pipe.Drained() {
			break
		}
	}
	r.stats.HistogramCycles = r.stats.Cycles - start
	r.next = 0
	if r.comp != nil {
		// Rewind the decompressor for the second pass.
		r.comp = newRLEFeed(r.comp.col)
		r.compPending = -1
	}
}

// prefixSum turns the histogram into line-aligned partition base addresses.
// Each partition's region is its exact line count plus one potential partial
// line per write combiner (the flush can leave up to lanes partially filled
// lines per partition). The scan costs one cycle per partition on the FPGA.
func (r *run) prefixSum() {
	slack := int64(r.lanes - 1)
	if r.cfg.DisableWriteCombiner {
		slack = 0 // tuple-granular RMW writes need no flush slack
	}
	for p := 0; p < r.cfg.NumPartitions; p++ {
		lines := (r.hist[p] + int64(r.tpl) - 1) / int64(r.tpl)
		r.capLines[p] = lines + slack
		if r.hist[p] == 0 {
			r.capLines[p] = 0
		}
	}
	r.stats.PrefixSumCycles = int64(r.cfg.NumPartitions)
	r.stats.Cycles += int64(r.cfg.NumPartitions)
}

// padBases preassigns every partition the fixed padded size of PAD mode.
func (r *run) padBases() {
	p := int64(r.cfg.NumPartitions)
	capTuples := (r.total + p - 1) / p
	capTuples = int64(float64(capTuples) * (1 + r.cfg.PadFraction))
	if capTuples < 1 {
		capTuples = 1
	}
	lines := (capTuples + int64(r.tpl) - 1) / int64(r.tpl)
	if !r.cfg.DisableWriteCombiner {
		lines += int64(r.lanes - 1)
	}
	for i := range r.capLines {
		r.capLines[i] = lines
	}
}

// allocate lays the partitions out in shared memory and populates the
// FPGA-side page table.
func (r *run) allocate() {
	var totalLines int64
	base := make([]int64, r.cfg.NumPartitions)
	for p := range r.capLines {
		base[p] = totalLines
		totalLines += r.capLines[p]
	}
	r.out = &Output{
		NumPartitions: r.cfg.NumPartitions,
		TupleWidth:    r.cfg.OutputTupleWidth(),
		DummyKey:      r.dummy,
		Lines:         make([]uint64, totalLines*8),
		Base:          base,
		LinesUsed:     r.used,
		Counts:        r.counts,
	}
	// Fill with dummy keys so never-written slots of used regions (PAD mode
	// headroom) read as dummies, like bitstream-initialized memory.
	dummyWord := uint64(r.dummy) | uint64(r.dummy)<<32
	for i := range r.out.Lines {
		r.out.Lines[i] = dummyWord
	}

	// Shared-memory region: input buffer followed by the output buffer,
	// page-aligned, as the software would allocate through the Intel API.
	pageBytes := 4 << 20
	var inBytes int64
	if r.comp != nil {
		inBytes = int64(r.comp.col.CompressedBytes())
	} else {
		inBytes = int64(r.rel.Bytes())
	}
	r.outOff = (inBytes + int64(pageBytes) - 1) / int64(pageBytes) * int64(pageBytes)
	need := r.outOff + totalLines*64
	if need < int64(pageBytes) {
		need = int64(pageBytes)
	}
	pool, err := memsys.NewPool(need+int64(pageBytes), pageBytes)
	if err == nil {
		if region, aerr := pool.Alloc(need); aerr == nil {
			r.region = region
			pages := (need + int64(pageBytes) - 1) / int64(pageBytes)
			if pt, perr := memsys.NewPageTable(pageBytes, int(pages)); perr == nil {
				if pt.Populate(region) == nil {
					r.ptable = pt
				}
			}
		}
	}
}

// translate models the pipelined FPGA page-table lookup for one cache-line
// access at byte offset off in the run's virtual space.
func (r *run) translate(off int64) {
	if r.ptable == nil {
		return
	}
	if _, err := r.ptable.Translate(off); err == nil {
		r.stats.PageTranslations++
	}
}

// nextGroup feeds the hash pipelines: it writes the next lane group into
// the pipeline's input slot and reports true if the input stage may issue
// this cycle, or reports false for a bubble (leaving the slot stale). When
// feed is true the back-pressure rule of Section 4.3 applies — a new cache
// line is requested only if every first-stage FIFO has room for all groups
// in flight.
func (r *run) nextGroup(feed bool) bool {
	if r.next >= r.total {
		return false
	}
	if feed {
		for _, f := range r.fifo1 {
			if f.Free() < hashPipelineDepth+1 {
				r.stats.StallsBackpressure++
				return false
			}
		}
	}
	if r.comp != nil {
		return r.nextCompressedGroup()
	}
	needLine := true
	if r.cfg.Layout == VRID {
		// 16 keys per input line; a new line is consumed every other group.
		needLine = r.next%16 == 0
	}
	if needLine {
		if !r.ep.CanRead() {
			r.stats.StallsBackpressure++
			return false
		}
		r.ep.Read()
		r.stats.LinesRead++
		r.translate(r.inputLineOffset())
	}
	g := r.pipe.In()
	n := int(r.total - r.next)
	if n > r.lanes {
		n = r.lanes
	}
	// Only the words[:wpt] and part fields of each lane are read
	// downstream; the rest of the slot keeps stale data.
	for i := 0; i < n; i++ {
		idx := r.next + int64(i)
		t := &g.t[i]
		var key uint32
		if r.cfg.Layout == VRID {
			key = r.rel.Keys[idx]
			t.words[0] = uint64(idx)<<32 | uint64(key) // <key, VRID>
		} else {
			stride := r.rel.Stride()
			src := r.rel.Data[int(idx)*stride : int(idx+1)*stride]
			copy(t.words[:stride], src)
			key = uint32(src[0])
		}
		t.part = hashutil.PartitionIndex32(key, r.radix, r.cfg.Hash)
	}
	g.n = n
	r.next += int64(n)
	r.stats.TuplesIn += int64(n)
	return true
}

// inputLineOffset returns the byte offset of the cache line about to be read.
func (r *run) inputLineOffset() int64 {
	if r.cfg.Layout == VRID {
		return r.next * 4 / 64 * 64
	}
	return r.next * int64(r.cfg.TupleWidth) / 64 * 64
}

// partitionPass is the main pass: read, hash, combine, write back.
func (r *run) partitionPass() error {
	r.ep.SetMix(r.inputReadFrac())
	start := r.stats.Cycles
	// TuplesIn was already counted by the histogram pass; reset so the
	// partition pass recounts (HIST reads the data twice but each tuple is
	// one logical input).
	r.stats.TuplesIn = 0
	for {
		r.ep.Tick()
		if err := r.writeBack(); err != nil {
			return err
		}
		for i, cb := range r.comb {
			cb.step(r.fifo1[i], r.stats, &r.cfg)
		}
		ok := r.nextGroup(true)
		if !ok {
			r.stats.HashPipelineBubbles++
		}
		if out := r.pipe.Advance(ok); out != nil {
			for i := 0; i < out.n; i++ {
				r.fifo1[i].Push(out.t[i])
				if r.fifo1[i].HighWater > r.stats.MaxStage1FIFO {
					r.stats.MaxStage1FIFO = r.fifo1[i].HighWater
				}
			}
		}
		r.stats.Cycles++
		if r.pr != nil {
			r.pr.maybeSample(r)
		}
		if r.drainedExceptBanks() {
			break
		}
	}
	r.stats.PartitionCycles = r.stats.Cycles - start
	return nil
}

// drainedExceptBanks reports whether all in-flight tuples have settled into
// the combiner banks or memory — the condition to start the flush.
func (r *run) drainedExceptBanks() bool {
	if r.next < r.total || !r.pipe.Drained() || !r.final.Empty() {
		return false
	}
	for i, f := range r.fifo1 {
		if !f.Empty() || !r.comb[i].idle() {
			return false
		}
	}
	return true
}

// flushPass drains the partially filled lines left in the combiner BRAMs,
// padding them with dummy keys (Section 4.2). Each combiner scans its
// partition addresses sequentially, one per cycle; the write-back drains the
// results at up to one line per cycle under QPI back-pressure.
func (r *run) flushPass() error {
	if r.cfg.DisableWriteCombiner {
		return nil
	}
	start := r.stats.Cycles
	for {
		r.ep.Tick()
		if err := r.writeBack(); err != nil {
			return err
		}
		scansDone := true
		for _, cb := range r.comb {
			if !cb.flushStep(r.stats) {
				scansDone = false
			}
		}
		r.stats.Cycles++
		if r.pr != nil {
			r.pr.maybeSample(r)
		}
		if scansDone && r.final.Empty() && r.combOutsEmpty() {
			break
		}
	}
	r.stats.FlushCycles = r.stats.Cycles - start
	return nil
}

func (r *run) combOutsEmpty() bool {
	for _, cb := range r.comb {
		if !cb.out.Empty() {
			return false
		}
	}
	return true
}

// writeBack models the write-back module (Section 4.3): drain the final FIFO
// into memory under QPI write budget, and round-robin one line from the
// combiner output FIFOs into the final FIFO.
func (r *run) writeBack() error {
	if !r.final.Empty() {
		l := r.final.FrontRef()
		if l.single {
			// No-write-combiner ablation: a read-modify-write per tuple.
			if r.ep.CanRead() && r.ep.CanWrite() {
				r.ep.Read()
				r.ep.Write()
				r.stats.LinesRead++
				err := r.store(l)
				r.final.Drop()
				if err != nil {
					return err
				}
			}
		} else if r.ep.CanWrite() {
			r.ep.Write()
			err := r.store(l)
			r.final.Drop()
			if err != nil {
				return err
			}
		}
	}
	if r.final.CanPush() {
		for i := 0; i < r.lanes; i++ {
			idx := (r.rr + i) % r.lanes
			if src := r.comb[idx].out; !src.Empty() {
				*r.final.PushSlot() = *src.FrontRef()
				src.Drop()
				r.rr = (idx + 1) % r.lanes
				break
			}
		}
	}
	return nil
}

// store commits one line (or one tuple, in the ablation) to the output
// buffer, updating the offset and count BRAMs and checking PAD overflow.
func (r *run) store(l *outLine) error {
	p := int(l.part)
	if l.single {
		// Tuple-granular RMW: place the tuple at its exact slot.
		tupleIdx := r.counts[p]
		line := tupleIdx / int64(r.tpl)
		slot := int(tupleIdx % int64(r.tpl))
		if line >= r.capLines[p] {
			return r.overflow()
		}
		dst := (r.out.Base[p] + line) * 8
		copy(r.out.Lines[dst+int64(slot*r.wpt):dst+int64((slot+1)*r.wpt)], l.words[:r.wpt])
		if line >= r.used[p] {
			r.used[p] = line + 1
		}
		r.counts[p]++
		r.stats.TuplesOut++
		r.stats.LinesWritten++
		r.markWritten(dst * 8)
		return nil
	}
	if r.used[p] >= r.capLines[p] {
		return r.overflow()
	}
	dst := (r.out.Base[p] + r.used[p]) * 8
	copy(r.out.Lines[dst:dst+8], l.words[:])
	r.used[p]++
	r.counts[p] += int64(l.valid)
	r.stats.TuplesOut += int64(l.valid)
	r.stats.Dummies += int64(r.tpl) - int64(l.valid)
	r.stats.LinesWritten++
	r.markWritten(dst * 8)
	r.translate(r.outOff + dst*8)
	return nil
}

func (r *run) overflow() error {
	r.stats.Overflowed = true
	r.stats.OverflowAtTuple = r.stats.TuplesIn
	return ErrPartitionOverflow
}

// markWritten records the FPGA as last writer of the output line, the snoop
// filter state that later penalizes the CPU's build+probe (Section 2.2).
func (r *run) markWritten(byteOff int64) {
	if r.region == nil {
		return
	}
	_ = r.region.MarkWritten(platform.FPGASocket, r.outOff+byteOff, 64)
}

func (r *run) finishStats() {
	r.stats.Elapsed = time.Duration(float64(r.stats.Cycles) / r.clock * float64(time.Second))
}

// Region exposes the run's shared-memory region for coherence inspection in
// integration tests (which verify the output lines are FPGA-owned).
func (r *run) Region() *memsys.Region { return r.region }
