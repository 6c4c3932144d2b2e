package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestGoldenConformance pins the cluster frontend's complete observable
// behaviour — routed report, Chrome trace, and metrics snapshot — for one
// fixed scenario exercising every mechanism at once: a hot tenant under an
// admission quota, a mid-stream shard crash with clockwise failover, and
// the scatter-gather merge across the survivors. Any change to ring
// placement, quota accounting, failover order, latency bookkeeping, or
// trace emission shows up as a byte diff here; -update rewrites the
// snapshot, and a mismatch leaves a .got.json next to the golden file for
// CI to upload.
func TestGoldenConformance(t *testing.T) {
	const (
		seed = 42
		n    = 20
	)
	reqs, err := GenerateLoad(seed, n, LoadOptions{HotTenantShare: 0.4, MeanGapUS: 120})
	if err != nil {
		t.Fatal(err)
	}
	sess := simtrace.NewSession()
	rep, err := Run(reqs, Config{
		Shards:        3,
		TenantQuota:   2,
		QuotaWindowUS: 500,
		Seed:          seed,
		Faults:        crashScenario(seed),
		Trace:         sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The golden file pins the bytes; the semantics must hold regardless.
	if rep.Done != n {
		t.Fatalf("only %d/%d requests done (failed %d)", rep.Done, n, rep.Failed)
	}
	if len(rep.FailedShards) != 1 {
		t.Fatalf("failed shards %v, want exactly one (the scenario crashes shard 1)", rep.FailedShards)
	}
	checkParity(t, rep, reqs, seed)

	var b bytes.Buffer
	b.WriteString("{\n\"report\": ")
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(",\n\"trace\": ")
	if err := sess.Tracer.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(",\n\"metrics\": ")
	if err := sess.Metrics.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("}\n")

	compareGolden(t, filepath.Join("testdata", "golden", "cluster_conformance.json"), b.Bytes())
}

// TestGoldenChurnStorm pins the dynamic path the same way: a join, a drain
// behind its handoff barrier, and a late re-join, with replica-2 fixed-
// deadline hedges racing an 8× straggler. The snapshot freezes the
// membership section of the report JSON, the range_moved/hedge flight
// events in the trace, and the churn/hedge counters; any re-ordering of the
// barrier planning passes or the hedge lanes is a byte diff here.
func TestGoldenChurnStorm(t *testing.T) {
	const (
		seed = 42
		n    = 24
	)
	reqs, err := GenerateLoad(seed, n, LoadOptions{MeanGapUS: 40})
	if err != nil {
		t.Fatal(err)
	}
	sess := simtrace.NewSession()
	rep, err := Run(reqs, Config{
		Shards: 3,
		Schedule: MembershipSchedule{
			{AtUS: 250, Shard: 3, Kind: Join},
			{AtUS: 550, Shard: 0, Kind: Drain},
			{AtUS: 800, Shard: 4, Kind: Join},
		},
		Replicas: 2,
		HedgeUS:  150,
		Seed:     seed,
		Faults: &faults.Scenario{
			Seed:       seed,
			Stragglers: []faults.Straggler{{Node: 1, Factor: 8}},
		},
		Trace: sess,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Semantics first, bytes second: everything completes, churn actually
	// moved keys at each event, and the storm provoked at least one hedge.
	if rep.Done != n {
		t.Fatalf("only %d/%d requests done (failed %d)", rep.Done, n, rep.Failed)
	}
	for j, moved := range rep.EventMovedX10000 {
		if moved <= 0 {
			t.Errorf("membership event %d moved no keys", j)
		}
	}
	if rep.HedgeIssued == 0 {
		t.Error("churn storm issued no hedges; the snapshot would not cover the hedge path")
	}
	checkParity(t, rep, reqs, seed)

	var b bytes.Buffer
	b.WriteString("{\n\"report\": ")
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(",\n\"trace\": ")
	if err := sess.Tracer.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(",\n\"metrics\": ")
	if err := sess.Metrics.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("}\n")

	compareGolden(t, filepath.Join("testdata", "golden", "cluster_churnstorm.json"), b.Bytes())
}

// compareGolden diffs got against the golden file, honouring -update. On a
// mismatch the actual bytes are written next to the golden file as
// <name>.got.json so CI can attach them as an artifact.
func compareGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./cluster -run TestGolden -update` to create it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotPath := golden[:len(golden)-len(".json")] + ".got.json"
	if err := os.WriteFile(gotPath, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("golden mismatch: %s differs from %s\n%s\nrerun with -update if the change is intended",
		golden, gotPath, firstDiff(want, got))
}

// handoffLoad is the stream of the handoff snapshots: 600 dense requests
// under churnSchedule, which makes the new owners wait out non-zero drain
// barriers.
func handoffLoad(t *testing.T, seed uint64) ([]Request, MembershipSchedule) {
	t.Helper()
	reqs, err := GenerateLoad(seed, 600, LoadOptions{MeanGapUS: 5, MinTuples: 256, MaxTuples: 2048})
	if err != nil {
		t.Fatal(err)
	}
	return reqs, churnSchedule(reqs)
}

// churnSchedule joins shard 3 at a third of the stream's arrival span and
// drains shard 1 at two thirds.
func churnSchedule(reqs []Request) MembershipSchedule {
	var end int64
	for i := range reqs {
		if reqs[i].Job.ArrivalUS > end {
			end = reqs[i].Job.ArrivalUS
		}
	}
	return MembershipSchedule{
		{AtUS: end / 3, Shard: 3, Kind: Join},
		{AtUS: 2 * end / 3, Shard: 1, Kind: Drain},
	}
}

// TestGoldenHandoff pins runs whose handoff barriers actually delay
// requests, so the planning passes re-simulate shards: a plain churn run,
// and the same churn with R=2 auto-deadline hedges racing an 8× straggler
// under causal capture (per-request breakdowns and the merged flight
// timeline included). Both must report delayed handoffs, or the snapshot
// would stop covering the re-simulation path.
func TestGoldenHandoff(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   uint64
		hedged bool
	}{
		{"plain", 1, false},
		{"hedged_traced", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs, sched := handoffLoad(t, tc.seed)
			sess := simtrace.NewSession()
			cfg := Config{Shards: 3, Schedule: sched, Seed: tc.seed, Trace: sess}
			var capt *reqtrace.Capture
			if tc.hedged {
				capt = &reqtrace.Capture{FlightCap: 1 << 14}
				cfg.Replicas = 2
				cfg.HedgeUS = HedgeAuto
				cfg.Faults = stragglerScenario(tc.seed)
				cfg.ReqTrace = capt
			}
			rep, err := Run(reqs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.HandoffDelayed == 0 {
				t.Fatal("no request waited out a handoff barrier; the snapshot would not cover re-simulation")
			}
			if tc.hedged && rep.HedgeIssued == 0 {
				t.Fatal("no hedge issued; the snapshot would not cover the auto deadline")
			}
			checkParity(t, rep, reqs, tc.seed)

			var b bytes.Buffer
			b.WriteString("{\n\"report\": ")
			if err := rep.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			b.WriteString(",\n\"trace\": ")
			if err := sess.Tracer.WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			b.WriteString(",\n\"metrics\": ")
			if err := sess.Metrics.Snapshot().WriteJSON(&b); err != nil {
				t.Fatal(err)
			}
			if capt != nil {
				b.WriteString(",\n\"breakdown\": ")
				if err := reqtrace.WriteBreakdownJSON(&b, capt.Traces); err != nil {
					t.Fatal(err)
				}
				b.WriteString(",\n\"postmortem\": ")
				var pm bytes.Buffer
				if err := capt.WritePostmortem(&pm, "golden"); err != nil {
					t.Fatal(err)
				}
				q, err := json.Marshal(pm.String())
				if err != nil {
					t.Fatal(err)
				}
				b.Write(q)
			}
			b.WriteString("}\n")

			compareGolden(t, filepath.Join("testdata", "golden", "cluster_handoff_"+tc.name+".json"), b.Bytes())
		})
	}
}
