package core

import "fpgapart/internal/fpga"

// combiner is one write combiner module (Section 4.2, Figure 6): it gathers
// tuples of the same partition into banks of BRAM until a full 64-byte cache
// line is assembled, then emits the line into its output FIFO.
//
// The fill-rate BRAM has a 2-cycle read latency; Code 4's forwarding
// registers supply the in-flight fill rate whenever the current tuple hits
// the same partition as either of the previous two, which is exactly when
// the BRAM's reply would be stale. With forwarding the module accepts one
// tuple per cycle for any input pattern; the DisableForwarding ablation
// models the stall the hardware would otherwise need.
type combiner struct {
	banks int // tuple slots per cache line
	wpt   int // words per tuple
	parts int
	dummy uint32

	// store is the bank BRAM contents: bank b, partition p at
	// (p*banks+b)*wpt, so a partition's line is one contiguous run of
	// banks*wpt words. fill is the fill-rate BRAM.
	store []uint64
	fill  []uint8

	out *fpga.FIFO[outLine]

	// Forwarding registers: the partitions of the previous two accepted
	// tuples (hash_1d, hash_2d of Code 4), noTuple after a bubble.
	last [2]uint32

	// Hazard stall state for the DisableForwarding ablation.
	stall  int
	served bool

	// Flush scan cursor.
	flushAddr int
}

// noTuple marks an empty forwarding register; no partition index equals it.
const noTuple = ^uint32(0)

func newCombiner(cfg Config, banks, wpt int, dummy uint32) *combiner {
	return &combiner{
		last:  [2]uint32{noTuple, noTuple},
		banks: banks,
		wpt:   wpt,
		parts: cfg.NumPartitions,
		dummy: dummy,
		store: make([]uint64, banks*cfg.NumPartitions*wpt),
		fill:  make([]uint8, cfg.NumPartitions),
		out:   fpga.NewFIFO[outLine](cfg.OutFIFODepth),
	}
}

// step advances the combiner one clock cycle, consuming at most one tuple
// from its input FIFO.
//
//fpgavet:hotpath
func (cb *combiner) step(in *fpga.FIFO[tup], st *Stats, cfg *Config) {
	if cb.stall > 0 {
		cb.stall--
		st.StallsHazard++
		cb.shiftHazard(noTuple)
		return
	}
	if in.Empty() {
		cb.shiftHazard(noTuple)
		return
	}
	if !cb.out.CanPush() {
		// Back-pressure from the write-back module; not a hazard stall.
		cb.shiftHazard(noTuple)
		return
	}
	t := in.FrontRef()
	h := t.part
	// The strawman datapath has no fill-rate BRAM, hence no read hazard.
	hazard := !cfg.DisableWriteCombiner &&
		(h == cb.last[0] || h == cb.last[1])
	if hazard && cfg.DisableForwarding && !cb.served {
		// Without forwarding the issued BRAM read must be discarded and
		// reissued after the in-flight update lands: 2 dead cycles.
		cb.stall = 2
		cb.served = true
		cb.shiftHazard(noTuple)
		return
	}
	if hazard {
		// The fill rate comes from a forwarding register; the issued BRAM
		// read is discarded, so it does not occupy the read port.
		st.ForwardedHazards++
	} else if !cfg.DisableWriteCombiner {
		st.CombinerBRAMReads++ // fill-rate BRAM read
	}
	cb.served = false

	if cfg.DisableWriteCombiner {
		// Strawman datapath: no gathering; each tuple goes out on its own
		// and the write-back performs a read-modify-write of its line,
		// which reads only words[:wpt].
		l := cb.out.PushSlot()
		copy(l.words[:cb.wpt], t.words[:cb.wpt])
		in.Drop()
		l.part = h
		l.valid = 1
		l.single = true
		cb.shiftHazard(h)
		return
	}

	f := int(cb.fill[h])
	copy(cb.store[(int(h)*cb.banks+f)*cb.wpt:], t.words[:cb.wpt])
	in.Drop()
	st.CombinerBRAMWrites += 2 // bank write + fill-rate update
	if f == cb.banks-1 {
		cb.fill[h] = 0
		st.CombinerBRAMReads += int64(cb.banks) // bank reads for line assembly
		cb.assemble(cb.out.PushSlot(), h, cb.banks)
	} else {
		cb.fill[h] = uint8(f + 1)
	}
	cb.shiftHazard(h)
}

// shiftHazard advances the 1d/2d delay registers with the partition of the
// tuple accepted this cycle; a bubble (noTuple) clears the slot, as the
// in-flight update has reached the BRAM by then.
func (cb *combiner) shiftHazard(h uint32) {
	cb.last[1], cb.last[0] = cb.last[0], h
}

// assemble writes the cache line for partition h into l, an output FIFO
// slot holding stale data: the first n bank slots carry tuples, and every
// remaining word up to the end of the line is a dummy-key tuple. All fields
// of l are rewritten.
func (cb *combiner) assemble(l *outLine, h uint32, n int) {
	base := int(h) * cb.banks * cb.wpt
	m := copy(l.words[:], cb.store[base:base+n*cb.wpt])
	dummy := uint64(cb.dummy) | uint64(cb.dummy)<<32
	for w := m; w < len(l.words); w++ {
		l.words[w] = dummy
	}
	l.part = h
	l.valid = uint8(n)
	l.single = false
}

// idle reports whether the combiner has no work in flight (its banks may
// still hold partial lines for the flush).
func (cb *combiner) idle() bool {
	return cb.stall == 0 && cb.out.Empty()
}

// flushStep advances the end-of-run flush by one cycle: it inspects one
// partition address per cycle, emitting a padded partial line if the
// address holds leftover tuples. It reports whether the scan has finished.
//
//fpgavet:hotpath
func (cb *combiner) flushStep(st *Stats) bool {
	if cb.flushAddr >= cb.parts {
		return true
	}
	f := int(cb.fill[cb.flushAddr])
	st.CombinerBRAMReads++ // fill-rate scan read
	if f == 0 {
		cb.flushAddr++
		return cb.flushAddr >= cb.parts
	}
	if !cb.out.CanPush() {
		st.CombinerBRAMReads-- // stalled: the scan re-reads next cycle
		return false           // wait for the write-back to drain
	}
	cb.fill[cb.flushAddr] = 0
	st.CombinerBRAMWrites++          // fill-rate reset
	st.CombinerBRAMReads += int64(f) // bank reads for the partial line
	cb.assemble(cb.out.PushSlot(), uint32(cb.flushAddr), f)
	cb.flushAddr++
	return cb.flushAddr >= cb.parts
}
