package main

import (
	"fmt"
	"io"

	"fpgapart/cluster"
	"fpgapart/hashjoin"
	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/partition"
	"fpgapart/partserver"
	"fpgapart/workload"
)

// The serve stream: small requests (64–1024 tuples, a quarter of them
// joins, eight tenants) on four shards, open loop in virtual time.
const (
	serveShards    = 4
	serveMinTuples = 64
	serveMaxTuples = 1024
	serveGapUS     = 100
	// serve-churn's hot tenant sends hotShare of the stream under a quota
	// of hotQuota requests per 1000 µs window: twice its mean rate there
	// (hotShare·1000/serveGapUS = 2.5), so bursts are deferred but the
	// virtual backlog stays bounded.
	hotShare = 0.25
	hotQuota = 5
	// ringRepeats is how many passes over the stream's keys the ring
	// lookup layer calls make.
	ringRepeats = 16
)

// ringSink keeps the ring lookups' results live.
var ringSink int

// serveBench is the serve-static or serve-churn workload.
type serveBench struct {
	cfg    config
	churn  bool
	reqs   []cluster.Request
	ccfg   cluster.Config
	probes []*probe
	ring   *cluster.Ring

	// References: every request's checksum from one single-node
	// partserver.Run over the same jobs, their wrapping sum, and (churn)
	// the merged checksum of a static cluster run of the same stream.
	refReq    []uint32
	refMerged uint32
	refStatic uint32
	// shardJobs is each shard's routed share of the stream on the static
	// ring, for the partserver.Run layer calls.
	shardJobs [][]partserver.Job
	// capture is the latest round's request traces (serve-churn).
	capture *reqtrace.Capture
}

// probe is one sampled request whose relation is also partitioned on the
// FPGA and CPU partitioners directly, and joined by the hybrid join if the
// request is a join.
type probe struct {
	mode      string
	rel, rows *workload.Relation // the request's relation, and it in row layout
	join      *workload.Relation // the probe side, for join requests
	fpga, cpu partition.Partitioner
	joinOpt   hashjoin.Options

	refParts       []uint32
	refJoin        *hashjoin.Result
	rParts, sParts *partition.Result
}

func modeOf(j *partserver.Job) string {
	m := "hist"
	if j.Format == partition.PadMode {
		m = "pad"
	}
	if j.Layout == partition.ColumnStore {
		return m + "_vrid"
	}
	return m + "_rid"
}

func newServeBench(cfg config, size float64, churn bool) (bench, error) {
	n := int(float64(cfg.scale.serveRequests) * size)
	opts := cluster.LoadOptions{MeanGapUS: serveGapUS, MinTuples: serveMinTuples, MaxTuples: serveMaxTuples}
	if churn {
		opts.HotTenantShare = hotShare
	}
	reqs, err := cluster.GenerateLoad(uint64(cfg.seed), n, opts)
	if err != nil {
		return nil, err
	}
	b := &serveBench{cfg: cfg, churn: churn, reqs: reqs}
	b.ccfg = cluster.Config{Shards: serveShards, Seed: uint64(cfg.seed)}
	if churn {
		end := reqs[n-1].Job.ArrivalUS
		b.ccfg.TenantQuota = hotQuota
		b.ccfg.Schedule = cluster.MembershipSchedule{
			{AtUS: end / 4, Shard: serveShards, Kind: cluster.Join},
			{AtUS: end / 2, Shard: 2, Kind: cluster.Drain},
			{AtUS: 3 * end / 4, Shard: serveShards + 1, Kind: cluster.Join},
		}
		b.ccfg.Replicas = 2
		b.ccfg.HedgeUS = cluster.HedgeAuto
		b.ccfg.Faults = &faults.Scenario{
			Seed:       uint64(cfg.seed),
			Stragglers: []faults.Straggler{{Node: 0, Factor: 8}},
		}
	}

	type fpgaKey struct {
		fanOut int
		hash   bool
		format partition.Format
		layout partition.Layout
	}
	type cpuKey struct {
		fanOut int
		hash   bool
	}
	fpgas := map[fpgaKey]partition.Partitioner{}
	cpus := map[cpuKey]partition.Partitioner{}
	for i := 0; i < n; i += cfg.scale.probeEvery {
		j := &reqs[i].Job
		p := &probe{mode: modeOf(j), rel: j.Rel, rows: j.Rel, join: j.Probe}
		fk := fpgaKey{j.FanOut, j.Hash, j.Format, j.Layout}
		if p.fpga = fpgas[fk]; p.fpga == nil {
			if p.fpga, err = partition.NewFPGA(partition.FPGAOptions{
				Partitions: j.FanOut, Hash: j.Hash, Format: j.Format, Layout: j.Layout, FallbackThreads: 1,
			}); err != nil {
				return nil, err
			}
			fpgas[fk] = p.fpga
		}
		ck := cpuKey{j.FanOut, j.Hash}
		if p.cpu = cpus[ck]; p.cpu == nil {
			if p.cpu, err = partition.NewCPU(partition.CPUOptions{Partitions: j.FanOut, Hash: j.Hash, Threads: 1}); err != nil {
				return nil, err
			}
			cpus[ck] = p.cpu
		}
		if j.Rel.Layout == workload.ColumnLayout {
			// The VRID payload is the tuple's position, which is also the
			// generated row relation's payload.
			if p.rows, err = workload.FromKeys(j.Rel.Keys, 8); err != nil {
				return nil, err
			}
		}
		p.joinOpt = hashjoin.Options{Partitions: j.FanOut, Hash: j.Hash, Threads: 1, Format: j.Format}
		b.probes = append(b.probes, p)
	}
	shards := make([]int, serveShards)
	for s := range shards {
		shards[s] = s
	}
	if b.ring, err = cluster.NewRing(shards, 128); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *serveBench) jobs() []partserver.Job {
	jobs := make([]partserver.Job, len(b.reqs))
	for i := range b.reqs {
		jobs[i] = b.reqs[i].Job
		jobs[i].Tag = int64(i)
	}
	return jobs
}

func (b *serveBench) prepare() error {
	rep, err := partserver.Run(b.jobs(), partserver.Config{})
	if err != nil {
		return err
	}
	b.refReq = make([]uint32, len(b.reqs))
	for _, jr := range rep.Results {
		b.refReq[jr.Tag] = jr.Checksum
		b.refMerged += jr.Checksum
	}
	if b.churn {
		static := cluster.Config{Shards: serveShards, Seed: uint64(b.cfg.seed)}
		srep, err := cluster.Run(b.reqs, static)
		if err != nil {
			return err
		}
		b.refStatic = srep.Checksum
	}
	ref := map[[2]int]partition.Partitioner{}
	for _, p := range b.probes {
		fanOut, hash := p.joinOpt.Partitions, 0
		if p.joinOpt.Hash {
			hash = 1
		}
		cp := ref[[2]int{fanOut, hash}]
		if cp == nil {
			if cp, err = partition.NewCPU(partition.CPUOptions{Partitions: fanOut, Hash: p.joinOpt.Hash, Threads: 1}); err != nil {
				return err
			}
			ref[[2]int{fanOut, hash}] = cp
		}
		res, err := cp.Partition(p.rows)
		if err != nil {
			return err
		}
		p.refParts = checksums(res)
		if p.join != nil {
			if p.refJoin, err = hashjoin.CPU(p.rel, p.join, p.joinOpt); err != nil {
				return err
			}
			if p.rParts, err = p.fpga.Partition(p.rel); err != nil {
				return err
			}
			if p.sParts, err = p.fpga.Partition(p.join); err != nil {
				return err
			}
		}
	}
	if b.cfg.corruptRef {
		for i := range b.refReq {
			b.refReq[i] ^= 1
		}
		b.refMerged ^= 1
		b.refStatic ^= 1
		for _, p := range b.probes {
			for i := range p.refParts {
				p.refParts[i] ^= 1
			}
			if p.refJoin != nil {
				p.refJoin.Checksum ^= 1
			}
		}
	}
	b.shardJobs = make([][]partserver.Job, serveShards)
	for i, j := range b.jobs() {
		s := b.ring.Shard(b.reqs[i].Key)
		b.shardJobs[s] = append(b.shardJobs[s], j)
	}
	return nil
}

func (b *serveBench) round(tr *tracer, t *tally) {
	n := len(b.reqs)
	ccfg := b.ccfg
	if b.churn {
		ccfg.ReqTrace = &reqtrace.Capture{}
	}
	var rep *cluster.Report
	c, err := measure(tr, spanCluster, func() (err error) {
		rep, err = cluster.Run(b.reqs, ccfg)
		return err
	})
	t.ops += n
	if err != nil {
		t.failed += n - 1
		t.fail("cluster.Run: %v", err)
	} else {
		b.checkReport(t, rep)
		t.sums["req.count"] += float64(rep.Done)
		t.sums["req.ns"] += float64(c.ns)
		t.sums["req.alloc"] += float64(c.alloc)
		t.sums["growth.units"] = float64(n)
		clusterDet(t, rep)
		if b.churn {
			b.capture = ccfg.ReqTrace
			reqtraceDet(t, b.capture)
			if t.det["reqtrace.conserved_ratio"] != 1 {
				t.fail("request traces: latency decomposition not conserved (ratio %v)", t.det["reqtrace.conserved_ratio"])
			}
		} else {
			reqtraceDet(t, nil)
		}
	}

	zeroModes(t)
	for _, p := range b.probes {
		res, c, err := fpgaPartition(tr, p.fpga, p.mode, p.rel)
		t.ops++
		if err != nil {
			t.fail("%s partition: %v", p.mode, err)
		} else {
			recordFPGA(t, p.mode, res, c.ns)
			checkParts(t, p.mode, res, p.refParts)
		}

		if p.join != nil {
			hybridJoin(tr, t, p.rel, p.join, p.joinOpt, p.refJoin)
		}
	}
	for i := 0; i < cpuRepeats; i++ {
		for _, p := range b.probes {
			cpuPartition(tr, t, spanCPUSmall, p.cpu, p.rows, p.refParts)
		}
	}
}

// checkReport counts the requests of rep that did not complete or whose
// output differs from the single-node reference. A merged checksum that
// differs although every request matched fails the whole stream.
func (b *serveBench) checkReport(t *tally, rep *cluster.Report) {
	n, wrong, why := len(b.reqs), 0, "not done or checksum differs from the single-node reference"
	for i, rr := range rep.Results {
		if rr.Status != partserver.StatusDone || rr.Checksum != b.refReq[i] {
			wrong++
		}
	}
	switch {
	case len(rep.Results) != n:
		wrong, why = n, fmt.Sprintf("%d results", len(rep.Results))
	case wrong > 0:
	case rep.Checksum != b.refMerged:
		wrong, why = n, fmt.Sprintf("merged checksum %#x, single-node reference %#x", rep.Checksum, b.refMerged)
	case b.churn && rep.Checksum != b.refStatic:
		wrong, why = n, fmt.Sprintf("merged checksum %#x, static cluster %#x", rep.Checksum, b.refStatic)
	}
	if wrong > 0 {
		t.failed += wrong - 1
		t.fail("%d of %d requests: %s", wrong, n, why)
	}
}

func (b *serveBench) layer(tr *tracer, t *tally) error {
	if err := newCircuits(tr); err != nil {
		return err
	}
	for _, p := range b.probes {
		if p.join != nil {
			buildProbe(tr, t, spanBuildProbeSmall, p.rParts, p.sParts, p.rel.NumTuples+p.join.NumTuples, 1, p.refJoin)
		}
	}

	_, _ = measure(tr, spanRing, func() error {
		for r := 0; r < ringRepeats; r++ {
			for i := range b.reqs {
				ringSink += b.ring.Shard(b.reqs[i].Key)
			}
		}
		return nil
	})
	_, _ = measure(tr, spanReplicaSet, func() error {
		for r := 0; r < ringRepeats; r++ {
			for i := range b.reqs {
				ringSink += b.ring.ReplicaSet(b.reqs[i].Key, 2)[1]
			}
		}
		return nil
	})
	t.sums["ring.lookups"] += float64(ringRepeats * len(b.reqs))

	var reps []*partserver.Report
	for s, jobs := range b.shardJobs {
		if len(jobs) == 0 {
			continue
		}
		var rep *partserver.Report
		_, err := measure(tr, spanPartserver, func() (err error) {
			rep, err = partserver.Run(jobs, partserver.Config{FPGAs: 1, Workers: 1, Seed: uint64(s + 1)})
			return err
		})
		t.ops += len(jobs)
		if err != nil {
			t.failed += len(jobs) - 1
			t.fail("shard %d partserver.Run: %v", s, err)
			continue
		}
		for _, jr := range rep.Results {
			if jr.Status != partserver.StatusDone || jr.Checksum != b.refReq[jr.Tag] {
				t.fail("shard %d job %d: status %v checksum %#x, reference %#x", s, jr.Tag, jr.Status, jr.Checksum, b.refReq[jr.Tag])
			}
		}
		t.sums["partserver.jobs"] += float64(len(jobs))
		reps = append(reps, rep)
	}
	partserverDet(t, reps)

	if b.capture != nil {
		traces := b.capture.Traces
		_, _ = measure(tr, spanAnalyze, func() error {
			reqtrace.Analyze(traces, 5)
			return nil
		})
		if _, err := measure(tr, spanBreakdown, func() error {
			return reqtrace.WriteBreakdownJSON(io.Discard, traces)
		}); err != nil {
			return err
		}
		t.sums["reqtrace.traces"] += float64(len(traces))
	}
	return nil
}

// zeroModes starts every mode's deterministic counts at zero, so that a
// mode no request uses still reports its metrics.
func zeroModes(t *tally) {
	for _, m := range modes {
		for _, k := range []string{
			"core.cycles.", "core.stalls_backpressure.", "core.stalls_hazard.",
			"core.hash_bubbles.", "core.flush_cycles.", "core.sim_mtuples_per_s.",
			"core.model_mtuples_per_s.", "qpi.lines_read.", "qpi.lines_written.",
			"qpi.useful_line_ratio.",
		} {
			t.det[k+m] = 0
		}
	}
}

// clusterDet records a cluster run's virtual-time outcome; nil records the
// zeros of a workload that makes no cluster call.
func clusterDet(t *tally, rep *cluster.Report) {
	if rep == nil {
		rep = &cluster.Report{}
	}
	d := t.det
	d["cluster.throttled"] = float64(rep.Throttled)
	d["cluster.rerouted"] = float64(rep.Rerouted)
	d["cluster.handoff_delayed"] = float64(rep.HandoffDelayed)
	d["cluster.hedge_issued"] = float64(rep.HedgeIssued)
	d["cluster.hedge_win_ratio"] = ratio(float64(rep.HedgeWon), float64(rep.HedgeIssued))
	d["cluster.hedge_wasted_us"] = float64(rep.HedgeWastedUS)
	d["cluster.virt_p50_us"] = float64(rep.LatP50US)
	d["cluster.virt_p99_us"] = float64(rep.LatP99US)
	d["cluster.virt_qps"] = float64(rep.QPSx100) / 100
}

// partserverDet records the scheduler outcome of the shards' partserver.Run
// calls; none records zeros.
func partserverDet(t *tally, reps []*partserver.Report) {
	var fpga, cpu, degraded, attempts, jobs float64
	var wait, exec []float64
	for _, rep := range reps {
		fpga += float64(rep.PlacedFPGA)
		cpu += float64(rep.PlacedCPU)
		degraded += float64(rep.Degraded)
		for _, jr := range rep.Results {
			jobs++
			attempts += float64(jr.Attempts)
			wait = append(wait, float64(jr.QueueWaitUS))
			exec = append(exec, float64(jr.ExecUS))
		}
	}
	d := t.det
	d["partserver.placed_fpga"] = fpga
	d["partserver.placed_cpu"] = cpu
	d["partserver.degraded"] = degraded
	d["partserver.attempts_per_job"] = ratio(attempts, jobs)
	d["partserver.virt_queue_wait_p50_us"] = nearestRank(wait, 50)
	d["partserver.virt_queue_wait_p99_us"] = nearestRank(wait, 99)
	d["partserver.virt_exec_p99_us"] = nearestRank(exec, 99)
}

// reqtraceDet records a request-trace capture's conservation and flight
// recorder drops; nil records zeros.
func reqtraceDet(t *tally, c *reqtrace.Capture) {
	var conserved, dropped float64
	if c != nil {
		for i := range c.Traces {
			if c.Traces[i].Conserved() {
				conserved++
			}
		}
		conserved = ratio(conserved, float64(len(c.Traces)))
		dropped = float64(c.FlightDropped)
	}
	t.det["reqtrace.conserved_ratio"] = conserved
	t.det["reqtrace.flight_dropped"] = dropped
}
