package core

import (
	"fmt"
	"testing"

	"fpgapart/workload"
)

// TestPartitionAllocsIndependentOfSize checks that the cycle loop allocates
// nothing: one Partition call makes the same number of allocations at 2^12
// and 2^16 tuples, in every mode, so every allocation is per-run set-up.
func TestPartitionAllocsIndependentOfSize(t *testing.T) {
	for _, format := range []Format{HIST, PAD} {
		for _, layout := range []Layout{RID, VRID} {
			t.Run(fmt.Sprintf("%v_%v", format, layout), func(t *testing.T) {
				cfg := Config{NumPartitions: 256, TupleWidth: 8, Hash: true, Format: format, Layout: layout, PadFraction: 0.5}
				c := mustCircuit(t, cfg)
				allocs := func(n int) float64 {
					rel := genRelation(t, workload.Random, 8, n, 5)
					if layout == VRID {
						rel = rel.ToColumns()
					}
					return testing.AllocsPerRun(3, func() {
						if _, _, err := c.Partition(rel); err != nil {
							t.Fatal(err)
						}
					})
				}
				small, large := allocs(1<<12), allocs(1<<16)
				if small != large {
					t.Errorf("Partition allocates %v times at 2^12 tuples, %v at 2^16: the cycle loop allocates", small, large)
				}
			})
		}
	}
}

// TestOutputSlotReuseRewritesEveryField drives one combiner whose output
// FIFO slots first carry full lines and are then reused for the flush's
// partial lines. Before each full line is dropped its slot is poisoned, so a
// partial line that skipped a field would show the poison: the unused tuple
// slots must read as dummy keys, and part, valid and single must be
// rewritten.
func TestOutputSlotReuseRewritesEveryField(t *testing.T) {
	cfg := Config{NumPartitions: 4, TupleWidth: 8, Format: PAD, Layout: RID, OutFIFODepth: 2}.WithDefaults()
	cb := newCombiner(cfg, 8, 1, DefaultDummyKey)
	in := newTestFIFO(cfg)
	stats := &Stats{}
	feed := func(part uint32, n int) {
		for i := 0; i < n; i++ {
			in.Push(tup{words: [8]uint64{uint64(100+i)<<32 | uint64(part)}, part: part})
			cb.step(in, stats, &cfg)
		}
	}

	// Two full lines fill both output slots; poison each before dropping.
	for _, part := range []uint32{1, 2} {
		feed(part, 8)
		l := cb.out.FrontRef()
		if l.valid != 8 || l.part != part {
			t.Fatalf("full line: part=%d valid=%d", l.part, l.valid)
		}
		l.part, l.valid, l.single = 77, 99, true
		cb.out.Drop()
	}

	// Partial lines for partitions 0 and 3 land in the same two slots.
	feed(0, 1)
	feed(3, 3)
	for !cb.flushStep(stats) {
	}
	for _, want := range []struct {
		part  uint32
		valid int
	}{{0, 1}, {3, 3}} {
		l := cb.out.FrontRef()
		if l.part != want.part || int(l.valid) != want.valid || l.single {
			t.Fatalf("partial line: part=%d valid=%d single=%v, want part=%d valid=%d single=false",
				l.part, l.valid, l.single, want.part, want.valid)
		}
		for i, w := range l.words {
			key := uint32(w)
			if i < want.valid {
				if key != want.part || w>>32 != uint64(100+i) {
					t.Errorf("partition %d slot %d = %#x, want its tuple", want.part, i, w)
				}
			} else if key != DefaultDummyKey {
				t.Errorf("partition %d slot %d = %#x, want a dummy key (stale data from the reused slot)", want.part, i, w)
			}
		}
		cb.out.Drop()
	}
}
