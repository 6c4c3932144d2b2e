// Package fpga provides the clocked-hardware building blocks the partitioner
// circuit simulator is assembled from: bounded FIFOs with back-pressure,
// block RAMs with synchronous single-cycle read latency, and pipeline
// registers. The components mirror the primitives the VHDL design uses
// (Section 4): the circuit is a composition of FIFOs between pipeline stages
// and BRAM-backed state with explicit hazard forwarding.
package fpga

import (
	"fmt"

	"fpgapart/internal/simtrace"
)

// FIFO is a bounded first-in first-out queue. A full FIFO exerts
// back-pressure: CanPush reports false and the producer stage must stall.
// The partitioner propagates such back-pressure all the way to the QPI read
// requester (Section 4.3), so no FIFO ever overflows.
type FIFO[T any] struct {
	buf        []T
	head, size int

	// HighWater records the maximum occupancy ever reached, for the
	// no-overflow invariant checks in tests.
	HighWater int

	// occ, when instrumented, observes the occupancy after every push —
	// several FIFOs may share one gauge, whose high-water mark then spans
	// them all (e.g. the lane FIFOs of the partitioner). Nil by default;
	// simtrace gauges are nil-receiver no-ops, so the uninstrumented path
	// costs one predictable branch.
	occ *simtrace.Gauge
}

// Instrument attaches a simtrace occupancy gauge to the FIFO. Passing nil
// detaches it.
func (f *FIFO[T]) Instrument(occ *simtrace.Gauge) { f.occ = occ }

// NewFIFO returns a FIFO with the given capacity.
func NewFIFO[T any](capacity int) *FIFO[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("fpga: FIFO capacity %d", capacity))
	}
	return &FIFO[T]{buf: make([]T, capacity)}
}

// Cap returns the FIFO capacity.
func (f *FIFO[T]) Cap() int { return len(f.buf) }

// Len returns the current occupancy.
func (f *FIFO[T]) Len() int { return f.size }

// Free returns the number of free slots.
func (f *FIFO[T]) Free() int { return len(f.buf) - f.size }

// Empty reports whether the FIFO holds no elements.
func (f *FIFO[T]) Empty() bool { return f.size == 0 }

// CanPush reports whether a push would succeed.
func (f *FIFO[T]) CanPush() bool { return f.size < len(f.buf) }

// Push enqueues a copy of v. Pushing into a full FIFO is a design bug —
// hardware would silently drop data — so the simulator panics to surface it.
//
//fpgavet:hotpath
func (f *FIFO[T]) Push(v T) { *f.PushSlot() = v }

// PushSlot enqueues one element and returns its slot for the producer to
// fill in place. The slot holds whatever element last occupied it: the
// producer must overwrite every field its consumer reads. It panics on a
// full FIFO, as Push does.
//
//fpgavet:hotpath
func (f *FIFO[T]) PushSlot() *T {
	if f.size == len(f.buf) {
		panic("fpga: push into full FIFO (back-pressure violated)")
	}
	i := f.head + f.size
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.size++
	if f.size > f.HighWater {
		f.HighWater = f.size
	}
	f.occ.Observe(int64(f.size))
	return &f.buf[i]
}

// FrontRef returns the oldest element in place. The pointer is valid until
// the matching Drop; after it the slot may be refilled by PushSlot.
//
//fpgavet:hotpath
func (f *FIFO[T]) FrontRef() *T {
	if f.size == 0 {
		panic("fpga: front of empty FIFO")
	}
	return &f.buf[f.head]
}

// Drop removes the oldest element. The slot is not cleared; it keeps its
// contents until a later PushSlot hands it to a producer.
//
//fpgavet:hotpath
func (f *FIFO[T]) Drop() {
	if f.size == 0 {
		panic("fpga: drop from empty FIFO")
	}
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
	}
	f.size--
}
