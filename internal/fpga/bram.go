package fpga

import (
	"fmt"

	"fpgapart/internal/simtrace"
)

// BRAM models a synchronous block RAM: a read issued in cycle t delivers its
// data in cycle t+1, and the RAM accepts one read and one write per cycle
// (simple dual-port). A write in cycle t is visible to reads issued in cycle
// t or later — i.e. a read and a write to the same address in the same cycle
// return the old data one cycle later, the behaviour the write combiner's
// forwarding logic exists to paper over (Section 4.2, Code 4).
type BRAM[T any] struct {
	data []T

	// Pending read state: at most one in flight per cycle.
	pendingValid bool
	pendingData  T

	// Statistics for resource accounting and invariant tests.
	Reads, Writes int64

	// Optional simtrace port counters (nil-receiver no-ops by default).
	readCtr, writeCtr *simtrace.Counter
}

// Instrument attaches simtrace counters to the BRAM's read and write ports.
// Either may be nil to leave that port uncounted.
func (b *BRAM[T]) Instrument(reads, writes *simtrace.Counter) {
	b.readCtr, b.writeCtr = reads, writes
}

// NewBRAM returns a BRAM with the given number of words.
func NewBRAM[T any](words int) *BRAM[T] {
	if words <= 0 {
		panic(fmt.Sprintf("fpga: BRAM of %d words", words))
	}
	return &BRAM[T]{data: make([]T, words)}
}

// Words returns the BRAM capacity in words.
func (b *BRAM[T]) Words() int { return len(b.data) }

// IssueRead latches the data at addr; it becomes available via ReadData in
// the next cycle (after the caller invokes Tick).
func (b *BRAM[T]) IssueRead(addr int) {
	b.pendingData = b.data[addr]
	b.pendingValid = true
	b.Reads++
	b.readCtr.Inc()
}

// Tick advances the RAM one clock cycle, committing the pending read into
// the read port.
func (b *BRAM[T]) Tick() {
	// The pending data was latched at issue time; Tick just marks the cycle
	// boundary. Nothing to do beyond keeping the one-read-per-cycle model
	// honest — the latch already holds the old value if a same-cycle write
	// followed the read.
}

// ReadData returns the data of the read issued in the previous cycle.
func (b *BRAM[T]) ReadData() T {
	if !b.pendingValid {
		panic("fpga: ReadData with no read in flight")
	}
	return b.pendingData
}

// Write stores v at addr, visible to reads issued in later cycles.
func (b *BRAM[T]) Write(addr int, v T) {
	b.data[addr] = v
	b.Writes++
	b.writeCtr.Inc()
}

// Peek returns the current contents of addr without modeling latency; used
// by the flush phase (which scans sequentially and can pipeline the reads)
// and by tests.
func (b *BRAM[T]) Peek(addr int) T { return b.data[addr] }

// Fill sets every word to v (power-on initialization; BRAMs on Stratix V can
// be initialized from the bitstream).
func (b *BRAM[T]) Fill(v T) {
	for i := range b.data {
		b.data[i] = v
	}
}

// Pipe is a pipeline register chain of fixed depth that holds its words in
// place: a value written in cycle t emerges in cycle t+depth. It models the
// stages of the hash-function pipeline (Code 3), where each VHDL line is a
// register stage.
//
// The chain is a ring of depth+1 slots. Each cycle the producer fills In()
// in place and calls Advance, which returns the slot written depth cycles
// earlier. That slot is the next cycle's In(), so the consumer must finish
// reading it before the producer fills the next input; the extra slot is
// what keeps the slot being written distinct from the slot being read.
// Nothing is copied or cleared: a bubble's slot keeps stale data and is
// never returned.
type Pipe[T any] struct {
	slots    []T
	valid    []bool
	head     int // slot In() returns this cycle
	inFlight int // valid values written and not yet returned
}

// NewPipe returns a register chain of the given depth (≥ 1).
func NewPipe[T any](depth int) *Pipe[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("fpga: register chain of depth %d", depth))
	}
	return &Pipe[T]{slots: make([]T, depth+1), valid: make([]bool, depth+1)}
}

// Depth returns the latency of the chain in cycles.
func (p *Pipe[T]) Depth() int { return len(p.slots) - 1 }

// In returns the input slot of the current cycle. It holds stale data: the
// producer overwrites every field its consumer reads.
func (p *Pipe[T]) In() *T { return &p.slots[p.head] }

// Advance clocks the chain one cycle, latching In() with the given valid
// bit. It returns the slot written Depth() cycles ago, or nil if that cycle
// was a bubble. The returned slot stays intact until the caller's next
// write through In().
//
//fpgavet:hotpath
func (p *Pipe[T]) Advance(valid bool) *T {
	p.valid[p.head] = valid
	if valid {
		p.inFlight++
	}
	p.head++
	if p.head == len(p.slots) {
		p.head = 0
	}
	// The oldest slot, Depth() writes back, is the next cycle's input slot.
	if !p.valid[p.head] {
		return nil
	}
	p.valid[p.head] = false
	p.inFlight--
	return &p.slots[p.head]
}

// Drained reports whether no valid values remain in flight.
func (p *Pipe[T]) Drained() bool { return p.inFlight == 0 }
