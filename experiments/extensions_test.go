package experiments

import (
	"bytes"
	"testing"
)

func TestSkewDetectOverflowsBeyondThreshold(t *testing.T) {
	res, err := RunSkewDetect(tiny())
	if err != nil {
		t.Fatal(err)
	}
	byFactor := map[float64]struct{ overflows, total int }{}
	for _, p := range res.Points {
		e := byFactor[p.ZipfFactor]
		e.total++
		if p.Overflowed {
			e.overflows++
			if p.DetectedAtFraction <= 0 || p.DetectedAtFraction > 1 {
				t.Errorf("detection fraction %v out of range", p.DetectedAtFraction)
			}
		}
		byFactor[p.ZipfFactor] = e
	}
	// Mild skew survives in the (large) majority of runs — at reduced scale
	// the 15% padding is within a few sigma of the partition-size tail, so
	// an occasional seed may still trip it — while strong skew always
	// overflows (Section 5.4's threshold is ~0.25 for realistic padding).
	if e := byFactor[0.1]; e.overflows > e.total/2 {
		t.Errorf("zipf 0.1 overflowed %d/%d times", e.overflows, e.total)
	}
	if e := byFactor[1.0]; e.overflows != e.total {
		t.Errorf("zipf 1.0 overflowed only %d/%d times", e.overflows, e.total)
	}
}

func TestFutureOrdering(t *testing.T) {
	res, err := RunFuture(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Today's link < raw wrapper; the future platform beats today's link.
	if res.Rows[0].MTuplesPerS >= res.Rows[1].MTuplesPerS {
		t.Errorf("Xeon+FPGA (%v) should be slower than the raw wrapper (%v)",
			res.Rows[0].MTuplesPerS, res.Rows[1].MTuplesPerS)
	}
	if res.Rows[2].MTuplesPerS <= res.Rows[0].MTuplesPerS {
		t.Errorf("future platform (%v) should beat today's link (%v)",
			res.Rows[2].MTuplesPerS, res.Rows[0].MTuplesPerS)
	}
}

func TestDistributedShape(t *testing.T) {
	res, err := RunDistributed(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	var cpu1, cpu8 DistributedRow
	for _, r := range res.Rows {
		if !r.FPGA && r.Nodes == 1 {
			cpu1 = r
		}
		if !r.FPGA && r.Nodes == 8 {
			cpu8 = r
		}
		if r.Nodes == 1 && r.BytesExchanged != 0 {
			t.Errorf("single node exchanged %d bytes", r.BytesExchanged)
		}
		if r.Nodes > 1 && r.BytesExchanged == 0 {
			t.Errorf("%d nodes exchanged nothing", r.Nodes)
		}
	}
	if cpu1.Nodes != 1 || cpu8.Nodes != 8 {
		t.Fatal("missing CPU rows for 1 and 8 nodes")
	}
	// The join phase parallelizes across nodes. One wall-clock sample per
	// side flakes under load, so each side is its median of several
	// interleaved repetitions of the same joins.
	cfg := tiny().WithDefaults()
	in, err := distributedInput(cfg)
	if err != nil {
		t.Fatal(err)
	}
	join1, join8 := medianInterleaved(func(eight bool) float64 {
		nodes := 1
		if eight {
			nodes = 8
		}
		r, err := distributedJoin(cfg, in, nodes, false)
		if err != nil {
			t.Fatal(err)
		}
		return r.JoinTime.Seconds()
	})
	if join8 >= join1 {
		t.Errorf("8-node join (%v s) not faster than 1-node (%v s)", join8, join1)
	}
}

func TestCompressSweepShape(t *testing.T) {
	res, err := RunCompress(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Ratio and compressed throughput grow with run length; run length 1
	// (incompressible under RLE) must be slower than plain.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Ratio <= res.Rows[i-1].Ratio {
			t.Errorf("ratio not increasing: %+v", res.Rows)
		}
	}
	if res.Rows[0].CompMTps >= res.Rows[0].PlainMTps {
		t.Errorf("incompressible column should be slower compressed: %+v", res.Rows[0])
	}
	// Ceiling analysis: in HIST mode the histogram pass is circuit-bound at
	// one lane group per cycle (N/8 cycles) no matter how few lines are
	// read, so even infinite compression only accelerates the second pass:
	// (0.563 + 2.02) / (0.625 + 1.62) ≈ 1.15× on the Xeon+FPGA link.
	last := res.Rows[len(res.Rows)-1]
	if last.CompMTps <= last.PlainMTps*1.10 {
		t.Errorf("long runs should speed partitioning ≥1.1x: %+v", last)
	}
}

func TestExtensionRunnersRender(t *testing.T) {
	for _, id := range []string{"skewdetect", "future", "dist", "compress"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(tiny(), &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}
