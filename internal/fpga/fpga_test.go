package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fpgapart/internal/simtrace"
)

// pop reads the oldest element through FrontRef and drops it.
func pop[T any](f *FIFO[T]) T {
	v := *f.FrontRef()
	f.Drop()
	return v
}

func TestFIFOBasicOrder(t *testing.T) {
	f := NewFIFO[int](4)
	for i := 1; i <= 4; i++ {
		if !f.CanPush() {
			t.Fatalf("CanPush false at %d", i)
		}
		f.Push(i)
	}
	if f.CanPush() {
		t.Error("CanPush true when full")
	}
	if f.Len() != 4 || f.Free() != 0 {
		t.Errorf("Len/Free = %d/%d", f.Len(), f.Free())
	}
	for i := 1; i <= 4; i++ {
		if *f.FrontRef() != i {
			t.Fatalf("FrontRef = %d, want %d", *f.FrontRef(), i)
		}
		if pop(f) != i {
			t.Fatalf("Pop out of order at %d", i)
		}
	}
	if !f.Empty() {
		t.Error("not empty after draining")
	}
}

func TestFIFOWrapAround(t *testing.T) {
	f := NewFIFO[int](3)
	// Interleave pushes and pops so head wraps several times.
	next, expect := 0, 0
	for round := 0; round < 20; round++ {
		for f.CanPush() {
			f.Push(next)
			next++
		}
		f.Drop() // free one slot
		expect++
		f.Push(next)
		next++
		for !f.Empty() {
			if got := pop(f); got != expect {
				t.Fatalf("round %d: got %d, want %d", round, got, expect)
			}
			expect++
		}
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("push into full FIFO did not panic")
		}
	}()
	f := NewFIFO[int](1)
	f.Push(1)
	f.Push(2)
}

func TestFIFOUnderflowPanics(t *testing.T) {
	for name, op := range map[string]func(*FIFO[int]){
		"FrontRef": func(f *FIFO[int]) { f.FrontRef() },
		"Drop":     (*FIFO[int]).Drop,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty FIFO did not panic", name)
				}
			}()
			f := NewFIFO[int](2)
			f.Push(1)
			f.Drop()
			op(f)
		}()
	}
}

func TestFIFOPushSlotFullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PushSlot into full FIFO did not panic")
		}
	}()
	f := NewFIFO[int](2)
	*f.PushSlot() = 1
	*f.PushSlot() = 2
	f.PushSlot()
}

// TestFIFOSlotsInPlace drives PushSlot/FrontRef/Drop around the ring several
// times: order survives wrap-around, a slot is handed back with its stale
// contents, HighWater tracks the peak, and the gauge observes every push.
func TestFIFOSlotsInPlace(t *testing.T) {
	reg := simtrace.NewRegistry()
	occ := reg.Gauge("occ")
	f := NewFIFO[[2]int](3)
	f.Instrument(occ)
	next, expect := 0, 0
	for round := 0; round < 7; round++ {
		for i := 0; i < 2; i++ {
			s := f.PushSlot()
			if next >= f.Cap() && s[1] != -1 {
				t.Fatalf("push %d: reused slot holds %v, want the stale dropped element", next, *s)
			}
			s[0], s[1] = next, next
			next++
			if got := occ.Value(); got != int64(f.Len()) {
				t.Fatalf("occupancy gauge = %d after push, want %d", got, f.Len())
			}
		}
		for !f.Empty() {
			s := f.FrontRef()
			if s[0] != expect {
				t.Fatalf("round %d: FrontRef = %d, want %d", round, s[0], expect)
			}
			s[1] = -1 // mark: Drop must leave this in the slot
			f.Drop()
			expect++
		}
	}
	if f.HighWater != 2 {
		t.Errorf("HighWater = %d, want 2", f.HighWater)
	}
	if got := occ.Max(); got != 2 {
		t.Errorf("occupancy gauge max = %d, want 2", got)
	}
}

func TestFIFOZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity FIFO did not panic")
		}
	}()
	NewFIFO[int](0)
}

func TestFIFOHighWater(t *testing.T) {
	f := NewFIFO[int](8)
	f.Push(1)
	f.Push(2)
	f.Push(3)
	f.Drop()
	f.Drop()
	f.Drop()
	f.Push(4)
	if f.HighWater != 3 {
		t.Errorf("HighWater = %d, want 3", f.HighWater)
	}
}

func TestFIFOPropertyQueueSemantics(t *testing.T) {
	// Against a reference slice queue, any bounded push/pop sequence agrees.
	f := func(ops []bool) bool {
		fifo := NewFIFO[int](5)
		var ref []int
		n := 0
		for _, push := range ops {
			if push && fifo.CanPush() {
				fifo.Push(n)
				ref = append(ref, n)
				n++
			} else if !push && !fifo.Empty() {
				got := pop(fifo)
				want := ref[0]
				ref = ref[1:]
				if got != want {
					return false
				}
			}
			if fifo.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBRAMReadLatency(t *testing.T) {
	b := NewBRAM[uint64](16)
	b.Write(3, 42)
	b.IssueRead(3)
	b.Tick()
	if got := b.ReadData(); got != 42 {
		t.Errorf("ReadData = %d, want 42", got)
	}
}

func TestBRAMReadWriteSameCycleReturnsOldData(t *testing.T) {
	// The hazard the forwarding registers exist for: a read issued in the
	// same cycle as a write to the same address sees the OLD value.
	b := NewBRAM[uint64](8)
	b.Write(5, 1) // earlier cycle
	b.IssueRead(5)
	b.Write(5, 99) // same cycle as the read
	b.Tick()
	if got := b.ReadData(); got != 1 {
		t.Errorf("same-cycle read returned %d, want old value 1", got)
	}
	// The write did land for later reads.
	b.IssueRead(5)
	b.Tick()
	if got := b.ReadData(); got != 99 {
		t.Errorf("next-cycle read returned %d, want 99", got)
	}
}

func TestBRAMPeekAndFill(t *testing.T) {
	b := NewBRAM[int](4)
	b.Fill(7)
	for i := 0; i < 4; i++ {
		if b.Peek(i) != 7 {
			t.Errorf("Peek(%d) = %d after Fill(7)", i, b.Peek(i))
		}
	}
	if b.Words() != 4 {
		t.Errorf("Words = %d", b.Words())
	}
}

func TestBRAMCounters(t *testing.T) {
	b := NewBRAM[int](4)
	b.Write(0, 1)
	b.IssueRead(0)
	b.Tick()
	_ = b.ReadData()
	if b.Reads != 1 || b.Writes != 1 {
		t.Errorf("counters = %d reads, %d writes", b.Reads, b.Writes)
	}
}

func TestBRAMReadWithoutIssuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ReadData without IssueRead did not panic")
		}
	}()
	NewBRAM[int](2).ReadData()
}

// shiftReg is the copying register chain the simulator used before Pipe:
// every cycle shifts every stage one place. It is the reference Pipe is
// checked against.
type shiftReg struct {
	stages []int
	valid  []bool
}

func (r *shiftReg) shift(in int, inValid bool) (int, bool) {
	last := len(r.stages) - 1
	out, outValid := r.stages[last], r.valid[last]
	copy(r.stages[1:], r.stages[:last])
	copy(r.valid[1:], r.valid[:last])
	r.stages[0], r.valid[0] = in, inValid
	return out, outValid
}

func (r *shiftReg) drained() bool {
	for _, v := range r.valid {
		if v {
			return false
		}
	}
	return true
}

// TestPipeMatchesShiftRegister runs Pipe and the copying shift register
// side by side on random valid/bubble sequences: every cycle they must
// agree on whether a value emerges, which value, and Drained.
func TestPipeMatchesShiftRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		depth := 1 + rng.Intn(7)
		p := NewPipe[int](depth)
		ref := &shiftReg{stages: make([]int, depth), valid: make([]bool, depth)}
		bubbleRate := rng.Float64()
		for cyc := 0; cyc < 64; cyc++ {
			v := trial*1000 + cyc
			valid := cyc < 48 && rng.Float64() >= bubbleRate
			// The producer writes the slot even on a bubble, as a
			// stalled stage would; the value must never emerge.
			*p.In() = v
			got := p.Advance(valid)
			want, wantOK := ref.shift(v, valid)
			if (got != nil) != wantOK || (got != nil && *got != want) {
				t.Fatalf("depth %d cycle %d: Advance = %v, shift register = %d,%v", depth, cyc, got, want, wantOK)
			}
			if p.Drained() != ref.drained() {
				t.Fatalf("depth %d cycle %d: Drained = %v, shift register %v", depth, cyc, p.Drained(), ref.drained())
			}
		}
		if !p.Drained() {
			t.Fatalf("depth %d: not drained after 16 idle cycles", depth)
		}
	}
}

func TestPipeLatency(t *testing.T) {
	p := NewPipe[int](5) // the murmur pipeline depth
	if p.Depth() != 5 {
		t.Fatalf("Depth = %d", p.Depth())
	}
	var outputs []int
	for i := 0; i < 10; i++ {
		*p.In() = i
		if out := p.Advance(true); out != nil {
			outputs = append(outputs, *out)
		}
	}
	// First output appears after 5 cycles and values emerge in order.
	if len(outputs) != 5 {
		t.Fatalf("got %d outputs, want 5", len(outputs))
	}
	for i, v := range outputs {
		if v != i {
			t.Errorf("output %d = %d", i, v)
		}
	}
}

func TestPipeZeroDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-depth register chain did not panic")
		}
	}()
	NewPipe[int](0)
}

func TestBRAMZeroWordsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-word BRAM did not panic")
		}
	}()
	NewBRAM[int](0)
}
