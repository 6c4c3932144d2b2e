package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"fpgapart/internal/faults"
	"fpgapart/internal/reqtrace"
	"fpgapart/internal/simtrace"
	"fpgapart/partserver"
)

// ErrSimulatorFault is reported (wrapped) when an invariant violation inside
// the simulator internals panics during a cluster run. Run converts such
// panics into errors at the public API boundary. Test with
// errors.Is(err, ErrSimulatorFault).
var ErrSimulatorFault = errors.New("cluster: simulator invariant fault")

// guardSimulator converts a panic escaping the simulator into an
// ErrSimulatorFault-wrapping error. Used via defer with a named return.
func guardSimulator(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrSimulatorFault, r)
	}
}

// HedgeAuto selects the running-percentile hedge deadline: a request is
// hedged when its primary response is outstanding past the nearest-rank p95
// of all responses completed by its admission time (deterministic — the
// percentile is computed over virtual-time completions, which are
// themselves pure functions of stream, config and seed). Fewer than
// hedgeMinSamples completed responses means no hedge: the estimate is not
// trustworthy yet.
const HedgeAuto int64 = -1

// hedgeMinSamples gates the HedgeAuto estimator until it has seen enough
// completed responses to make p95 meaningful.
const hedgeMinSamples = 8

// hedgeLaneSalt separates the hedge lane's per-shard scheduler seeds from
// the primary lane's, so a replica's hedge execution is an independent —
// but still fully deterministic — draw.
const hedgeLaneSalt uint64 = 0x68656467 // "hedg"

// Request is one tenant request entering the cluster frontend: a routing
// key, the tenant it bills to, and the partserver job to execute on
// whichever shard the ring selects. Job.ArrivalUS is the request's virtual
// arrival time at the router; Job.Tag is overwritten by the router (it
// carries the request index through the scatter-gather merge).
type Request struct {
	// Tenant identifies the billing tenant for admission quotas (≥ 0).
	Tenant int
	// Key is the routing key hashed onto the ring.
	Key uint64
	// Job is the work item forwarded to the selected shard.
	Job partserver.Job
}

// Config describes one cluster deployment: the shard pool, the ring, the
// per-tenant admission quota, the membership churn schedule, replica
// routing, and the fault scenario.
type Config struct {
	// Shards is the number of partserver shards (default 3), ids 0..Shards-1.
	Shards int
	// VNodes is the per-shard virtual-node count on the ring (default 128).
	VNodes int

	// ShardFPGAs and ShardWorkers size each shard's resource pool
	// (defaults 1 and 1).
	ShardFPGAs   int
	ShardWorkers int

	// TenantQuota caps how many requests one tenant may admit per
	// QuotaWindowUS window (0 disables quotas). A request over quota is
	// deferred to the next window — delayed, never dropped — so a hot
	// tenant's burst stretches its own latency instead of everyone's.
	TenantQuota int
	// QuotaWindowUS is the admission window length (default 1000 µs).
	QuotaWindowUS int64

	// Schedule lists live membership changes (shard joins and drains) at
	// virtual times. Requests admitted at or after an event route on the
	// post-event ring; only the key ranges whose owner changed re-route, and
	// they re-route behind a deterministic handoff barrier: the new owner
	// serves a moved key only after the old owner has drained the work it
	// had already admitted for the moved ranges. In-flight jobs always
	// complete on their admission-time owner. Empty means a static ring.
	Schedule MembershipSchedule

	// Replicas is the replica-set width R (default 1): each key's replica
	// set is the first R distinct members clockwise from its hash, the
	// primary first. Hedged reads go to the first non-primary replica.
	Replicas int

	// HedgeUS enables hedged reads when nonzero (requires Replicas ≥ 2):
	// a request whose primary response is outstanding past the deadline is
	// re-issued to its first replica, the first completion wins, and the
	// loser is cancelled through the scheduler's cancel path. A positive
	// value is a fixed virtual-time deadline in µs; HedgeAuto (-1) tracks
	// the running p95 of completed responses. 0 disables hedging.
	HedgeUS int64

	// Seed drives per-shard scheduler seeding (default 1).
	Seed uint64

	// Faults optionally degrades shards: Crashes entries with Node = shard
	// id kill that shard's accept path after AfterFraction of its fair share
	// of the request stream; later requests fail over clockwise around the
	// ring. Jobs already admitted to a crashing shard still complete (the
	// crash models the frontend, not the workers). Stragglers entries with
	// Node = shard id slow every FPGA instance of that shard by Factor —
	// the straggler profile hedged reads are measured against. Other
	// scenario fields do not apply at the routing tier and are ignored.
	Faults *faults.Scenario

	// Trace attaches a simtrace session: the router reports request routing
	// samples, per-shard serve spans, crash instants, and the cluster
	// counters/histogram the perf gate pins. All emission happens after the
	// deterministic harvest, in fixed order, so traces are byte-identical
	// across same-seed runs. Nil disables tracing.
	Trace *simtrace.Session

	// ReqTrace attaches a causal request capture: every request gets a
	// deterministic trace context (TraceID derived from Seed and request
	// index), an exact virtual-time latency decomposition spanning router
	// quota deferral, migration handoff, hedge wait, shard queueing,
	// batching, reconfiguration, execution, spill and retries, and a span
	// chain for critical-path analysis. The capture's flight recorder is
	// filled even when the run fails — the postmortem case. Nil disables
	// capture at zero cost.
	ReqTrace *reqtrace.Capture
}

// WithDefaults returns a copy with unset knobs filled in.
func (c Config) WithDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.VNodes == 0 {
		c.VNodes = 128
	}
	if c.ShardFPGAs == 0 && c.ShardWorkers == 0 {
		c.ShardFPGAs = 1
		c.ShardWorkers = 1
	}
	if c.QuotaWindowUS == 0 {
		c.QuotaWindowUS = 1000
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate reports whether the configuration is runnable.
func (c *Config) Validate() (err error) {
	defer guardSimulator(&err)
	if c.Shards < 1 {
		return fmt.Errorf("cluster: Shards %d < 1", c.Shards)
	}
	if c.VNodes < 1 || c.VNodes > MaxVNodes {
		return fmt.Errorf("cluster: VNodes %d outside [1, %d]", c.VNodes, MaxVNodes)
	}
	if c.ShardFPGAs < 0 || c.ShardWorkers < 0 || c.ShardFPGAs+c.ShardWorkers == 0 {
		return fmt.Errorf("cluster: each shard needs at least one resource (ShardFPGAs %d, ShardWorkers %d)", c.ShardFPGAs, c.ShardWorkers)
	}
	if c.TenantQuota < 0 {
		return fmt.Errorf("cluster: negative TenantQuota %d", c.TenantQuota)
	}
	if c.QuotaWindowUS < 1 {
		return fmt.Errorf("cluster: QuotaWindowUS %d < 1", c.QuotaWindowUS)
	}
	if err := c.Schedule.Validate(c.Shards); err != nil {
		return err
	}
	if c.Replicas < 1 {
		return fmt.Errorf("cluster: Replicas %d < 1", c.Replicas)
	}
	if c.HedgeUS < HedgeAuto {
		return fmt.Errorf("cluster: HedgeUS %d < %d (HedgeAuto)", c.HedgeUS, HedgeAuto)
	}
	if c.HedgeUS != 0 && c.Replicas < 2 {
		return fmt.Errorf("cluster: hedged reads need Replicas ≥ 2, have %d", c.Replicas)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		for _, cr := range c.Faults.Crashes {
			if cr.Node >= c.Shards {
				return fmt.Errorf("cluster: crash of shard %d outside pool of %d", cr.Node, c.Shards)
			}
		}
		for _, st := range c.Faults.Stragglers {
			if st.Node >= c.Shards {
				return fmt.Errorf("cluster: straggler shard %d outside pool of %d", st.Node, c.Shards)
			}
		}
	}
	return nil
}

// mix is splitmix64's finalizer, the shard-seed derivation hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// quotaKey is one tenant's admission window.
type quotaKey struct {
	tenant int
	window int64
}

// routed is the router's per-request admission decision, in request order.
type routed struct {
	shard     int // -1: never admitted (all shards dead)
	primary   int // ring owner before failover
	admitUS   int64
	throttled bool
	// epoch is the membership epoch at admission; handoffUS the drain-barrier
	// wait imposed because the request's key had just moved owner.
	epoch     int
	handoffUS int64
	// hedged/hedgeShard/hedgeIssueUS describe a replica hedge; hedgeWon marks
	// the hedge lane finishing strictly first, hedgeDoneUS its completion.
	hedged       bool
	hedgeShard   int
	hedgeIssueUS int64
	hedgeWon     bool
	hedgeDoneUS  int64
}

// runState is the working state of one cluster run, threaded through the
// route → migrate → serve → hedge → gather phases. Every field is a pure
// function of (requests, config, seed) by the time the phase that fills it
// returns — the determinism argument is phase-local.
type runState struct {
	reqs []Request
	cfg  Config

	// rings[e] is the ring of membership epoch e; events the schedule.
	rings  []*Ring
	events MembershipSchedule
	// numShards sizes every per-shard array: the largest shard id that is
	// ever a ring member, plus one. Departed shards keep their slot, so the
	// report can state a drained shard's cumulative load.
	numShards int

	inj      *faults.Injector
	dieAfter []int // -1: never crashes
	dead     []bool
	crashUS  []int64
	// shardScen is the per-shard partserver fault scenario (stragglers
	// mapped onto the shard's FPGA instances); nil for healthy shards.
	shardScen []*faults.Scenario

	order     []int
	decisions []routed
	jobPos    []int // position within the shard's job list (-1: unrouted)
	served    []int
	shardJobs [][]partserver.Job // admission-time jobs (ArrivalUS = admit)

	// barriers[j][o] is the handoff barrier of membership event j for old
	// owner o: the virtual time o drains the work it had admitted for the
	// ranges event j moved away. handoff[idx] is the per-request wait.
	barriers [][]int64
	handoff  []int64

	throttleDelayUS int64

	// shardReps[s] is the memo of shard s's primary-lane report: nil until
	// the shard is simulated, and again whenever a handoff changes its job
	// list. finDone/finStatus index the per-request completions of the
	// latest reports; primarySims counts primary-lane shard simulations.
	shardReps   []*partserver.Report
	finDone     []int64
	finStatus   []partserver.Status
	primarySims int

	// Hedge lane: per-replica job lists, positions, reports, and the
	// per-request lane result (nil when the request was not hedged).
	laneJobs [][]partserver.Job
	lanePos  []int
	laneReps []*partserver.Report
	laneRes  []*partserver.JobResult

	plumb *capturePlumbing
}

func newRunState(reqs []Request, cfg Config) (*runState, error) {
	rings, err := cfg.Schedule.epochs(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	st := &runState{
		reqs:      reqs,
		cfg:       cfg,
		rings:     rings,
		events:    cfg.Schedule,
		numShards: cfg.Schedule.maxMember(cfg.Shards) + 1,
	}
	if cfg.Faults != nil {
		st.inj, err = faults.New(*cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}

	// Crash thresholds: a crashing shard accepts exactly
	// floor(AfterFraction · fair share) requests, then fail-stops its accept
	// path. AfterFraction 0 is dead on arrival. Only the initial pool can
	// crash (Validate pins crash ids below Shards); joined shards keep the
	// zero values.
	share := (len(reqs) + cfg.Shards - 1) / cfg.Shards
	st.dieAfter = make([]int, st.numShards)
	st.dead = make([]bool, st.numShards)
	st.crashUS = make([]int64, st.numShards)
	st.shardScen = make([]*faults.Scenario, st.numShards)
	for s := 0; s < st.numShards; s++ {
		st.dieAfter[s] = -1
		if st.inj == nil || s >= cfg.Shards {
			continue
		}
		if f, ok := st.inj.CrashFraction(s); ok {
			st.dieAfter[s] = int(f * float64(share))
			if st.dieAfter[s] == 0 {
				st.dead[s] = true
			}
		}
		// A straggling shard straggles all of its FPGA instances: the
		// cluster-level Straggler.Node names the shard, the shard-level
		// scenario names the instances.
		if f := st.inj.StraggleFactor(s); f > 1 {
			scen := &faults.Scenario{Seed: mix(cfg.Seed ^ uint64(s+1))}
			for i := 0; i < cfg.ShardFPGAs; i++ {
				scen.Stragglers = append(scen.Stragglers, faults.Straggler{Node: i, Factor: f})
			}
			st.shardScen[s] = scen
		}
	}

	// Admission order: (ArrivalUS, index), the virtual-time order requests
	// reach the router.
	st.order = make([]int, len(reqs))
	for i := range st.order {
		st.order[i] = i
	}
	for i := 1; i < len(st.order); i++ {
		// Insertion sort keeps the tie-break (index order) explicit and
		// allocation-free; request streams are admission-rate bounded.
		for k := i; k > 0; k-- {
			a, b := st.order[k-1], st.order[k]
			if reqs[a].Job.ArrivalUS < reqs[b].Job.ArrivalUS ||
				(reqs[a].Job.ArrivalUS == reqs[b].Job.ArrivalUS && a < b) {
				break
			}
			st.order[k-1], st.order[k] = b, a
		}
	}

	st.decisions = make([]routed, len(reqs))
	st.jobPos = make([]int, len(reqs))
	st.served = make([]int, st.numShards)
	st.shardJobs = make([][]partserver.Job, st.numShards)
	st.handoff = make([]int64, len(reqs))
	st.shardReps = make([]*partserver.Report, st.numShards)
	st.finDone = make([]int64, len(reqs))
	st.finStatus = make([]partserver.Status, len(reqs))
	for i := range st.finStatus {
		st.finStatus[i] = partserver.StatusFailed
	}
	st.lanePos = make([]int, len(reqs))
	st.laneRes = make([]*partserver.JobResult, len(reqs))
	for i := range st.lanePos {
		st.lanePos[i] = -1
	}
	st.plumb = newCapturePlumbing(cfg.ReqTrace, st.numShards)
	return st, nil
}

// route makes every admission decision in (ArrivalUS, index) order:
// per-tenant quota deferral first (which fixes the admit time and thereby
// the membership epoch), then crash bookkeeping, then ring lookup on the
// epoch's ring with clockwise failover past dead shards.
func (st *runState) route() {
	for j := range st.events {
		ev := &st.events[j]
		kind := "shard_join"
		if ev.Kind == Drain {
			kind = "shard_drain"
		}
		st.plumb.record(ev.AtUS, kind, -1, int64(ev.Shard))
	}

	quota := make(map[quotaKey]int)
	alive := func(s int) bool { return !st.dead[s] }
	for _, idx := range st.order {
		r := &st.reqs[idx]
		d := routed{shard: -1, hedgeShard: -1}

		// Per-tenant admission quota: defer over-quota requests to the next
		// window until one has room. Deferral preserves the work (and thus
		// checksum parity with the single-node reference); it only delays it.
		admit := r.Job.ArrivalUS
		if st.cfg.TenantQuota > 0 {
			for {
				w := admit / st.cfg.QuotaWindowUS
				k := quotaKey{tenant: r.Tenant, window: w}
				if quota[k] < st.cfg.TenantQuota {
					quota[k]++
					break
				}
				admit = (w + 1) * st.cfg.QuotaWindowUS
				d.throttled = true
			}
		}
		if d.throttled {
			st.throttleDelayUS += admit - r.Job.ArrivalUS
			st.plumb.record(admit, "throttle", idx, admit-r.Job.ArrivalUS)
		}
		d.admitUS = admit
		d.epoch = st.events.epochAt(admit)
		ring := st.rings[d.epoch]
		d.primary = ring.Shard(r.Key)

		// Ring lookup with clockwise failover past fail-stopped shards.
		shard, ok := ring.ShardSkipping(r.Key, alive)
		st.jobPos[idx] = -1
		if ok {
			d.shard = shard
			if shard != d.primary {
				st.plumb.record(admit, "failover", idx, int64(shard))
			}
			job := r.Job
			job.Tag = int64(idx)
			job.ArrivalUS = admit
			st.jobPos[idx] = len(st.shardJobs[shard])
			st.shardJobs[shard] = append(st.shardJobs[shard], job)
			st.served[shard]++
			if st.dieAfter[shard] >= 0 && st.served[shard] >= st.dieAfter[shard] && !st.dead[shard] {
				st.dead[shard] = true
				st.crashUS[shard] = admit
				st.plumb.record(admit, "shard_crash", -1, int64(shard))
			}
		} else {
			st.plumb.record(admit, "unrouted", idx, int64(d.primary))
		}
		st.decisions[idx] = d
	}
}

// migrate computes the handoff barriers of the membership schedule, one
// event at a time in schedule order. For event j the barrier of old owner o
// is the completion time of the last request o had admitted for the ranges
// event j moved away — measured on a planning pass of the primary lane with
// the barriers of events < j already applied, using the exact seeds of the
// real serve pass. Requests admitted after the event whose key moved then
// wait until their old owner's barrier before arriving at the new owner
// ("plan-then-execute": the barrier is a pure function of stream, config
// and seed, never of live queue state). A planning pass is a memoized serve
// pass: it re-simulates only the shards whose job list a handoff changed
// since their last simulation, so a run that delays no handoff simulates
// each shard once.
func (st *runState) migrate() error {
	if len(st.events) == 0 {
		return nil
	}
	st.barriers = make([][]int64, len(st.events))
	for j := range st.events {
		st.barriers[j] = make([]int64, st.numShards)
		if err := st.serve(); err != nil {
			return fmt.Errorf("cluster: planning membership event %d: %w", j, err)
		}
		oldRing, newRing := st.rings[j], st.rings[j+1]
		// Barrier: drain point of each old owner's moved ranges.
		for idx := range st.reqs {
			d := &st.decisions[idx]
			if d.shard < 0 || d.epoch > j {
				continue
			}
			key := st.reqs[idx].Key
			o := oldRing.Shard(key)
			if d.shard != o || newRing.Shard(key) == o {
				continue
			}
			if st.finDone[idx] > st.barriers[j][o] {
				st.barriers[j][o] = st.finDone[idx]
			}
		}
		// Handoff: post-event requests for moved keys wait out the barrier.
		// A later event that moves the key again supersedes this one (its
		// pass re-applies over these values). A changed wait changes the
		// shard's job list, so the shard is re-simulated on the next pass.
		for idx := range st.reqs {
			d := &st.decisions[idx]
			if d.shard < 0 || d.epoch <= j {
				continue
			}
			key := st.reqs[idx].Key
			o, n := oldRing.Shard(key), newRing.Shard(key)
			if o == n || d.shard != n {
				continue
			}
			w := st.barriers[j][o] - d.admitUS
			if w < 0 {
				w = 0
			}
			if w != st.handoff[idx] {
				st.shardReps[d.shard] = nil
			}
			d.handoffUS = w
			st.handoff[idx] = w
			st.plumb.record(d.admitUS, "range_moved", idx, int64(n))
		}
	}
	return nil
}

// staleJobs returns the job lists of the shards without a memoized report
// (nil for the rest), with each migrating request's shard arrival pushed to
// admit + handoff. A shard without delayed requests gets its admission-time
// list unchanged (and uncopied).
func (st *runState) staleJobs() [][]partserver.Job {
	jobs := make([][]partserver.Job, st.numShards)
	for s := range jobs {
		if st.shardReps[s] == nil {
			jobs[s] = st.shardJobs[s]
		}
	}
	copied := make([]bool, st.numShards)
	for idx, w := range st.handoff {
		if w <= 0 {
			continue
		}
		d := &st.decisions[idx]
		if st.shardReps[d.shard] != nil {
			continue
		}
		if !copied[d.shard] {
			jobs[d.shard] = append([]partserver.Job(nil), jobs[d.shard]...)
			copied[d.shard] = true
		}
		jobs[d.shard][st.jobPos[idx]].ArrivalUS = d.admitUS + w
	}
	return jobs
}

// runShards runs one partserver deployment per non-empty shard, on real
// concurrent goroutines, and harvests in shard-index order. salt separates
// the seed streams of the serve and hedge lanes (0 is the primary lane);
// lane prefixes the shards' causal-record components; rec supplies the
// per-shard recorder (nil when the run is untraced).
func (st *runState) runShards(jobs [][]partserver.Job, rec func(int) *reqtrace.Recorder, salt uint64, lane string) ([]*partserver.Report, error) {
	reps := make([]*partserver.Report, st.numShards)
	errs := make([]error, st.numShards)
	var wg sync.WaitGroup
	for s := 0; s < st.numShards; s++ {
		if len(jobs[s]) == 0 {
			continue
		}
		r := rec(s)
		wg.Add(1)
		go func(s int, r *reqtrace.Recorder) {
			defer wg.Done()
			seed := mix(st.cfg.Seed ^ uint64(s+1) ^ salt)
			if seed == 0 {
				seed = 1
			}
			reps[s], errs[s] = partserver.Run(jobs[s], partserver.Config{
				FPGAs:   st.cfg.ShardFPGAs,
				Workers: st.cfg.ShardWorkers,
				Seed:    seed,
				Faults:  st.shardScen[s],
				Lane:    lane,
				Record:  r,
			})
		}(s, r)
	}
	wg.Wait()
	for s := 0; s < st.numShards; s++ {
		if errs[s] != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", s, errs[s])
		}
	}
	return reps, nil
}

// serve brings the primary lane — every admitted request on its owner, with
// migration handoffs applied — up to date and indexes the per-request
// completions. A shard's primary-lane report is a pure function of its job
// list (its seed and fault scenario are fixed), so only shards without a
// memoized report are simulated, each with a fresh recorder; the others
// keep the report and recorder of their last simulation, which are exactly
// what a re-simulation would produce.
func (st *runState) serve() error {
	reps, err := st.runShards(st.staleJobs(), st.plumb.freshShardRecorder, 0, "")
	if err != nil {
		return err
	}
	for s := range reps {
		if reps[s] == nil {
			continue
		}
		st.primarySims++
		st.shardReps[s] = reps[s]
		for k := range reps[s].Results {
			jr := &reps[s].Results[k]
			st.finDone[jr.Tag] = jr.DoneUS
			st.finStatus[jr.Tag] = jr.Status
		}
	}
	return nil
}

// autoDeadlines returns every request's HedgeAuto deadline in µs past
// admission (0: no hedge): the nearest-rank p95 of the router-observed
// latencies of the requests completed by its admission, once at least
// hedgeMinSamples have completed. One offline sweep computes them all:
// requests in admission order, completions inserted in completion order
// into a Fenwick tree over latency ranks, the p95 read by rank descent —
// O(n log n) instead of a scan and sort per request.
func (st *runState) autoDeadlines() []int64 {
	var done []int
	for idx := range st.reqs {
		if st.finStatus[idx] == partserver.StatusDone {
			done = append(done, idx)
		}
	}
	latency := func(idx int) int64 { return st.finDone[idx] - st.decisions[idx].admitUS }
	byLatency := append([]int(nil), done...)
	sort.Slice(byLatency, func(a, b int) bool { return latency(byLatency[a]) < latency(byLatency[b]) })
	rank := make([]int, len(st.reqs))
	for r, idx := range byLatency {
		rank[idx] = r + 1
	}
	byDone := append([]int(nil), done...)
	sort.Slice(byDone, func(a, b int) bool { return st.finDone[byDone[a]] < st.finDone[byDone[b]] })
	// Every done request was routed, so the done requests in admission
	// order are exactly the requests to visit.
	byAdmit := done
	sort.Slice(byAdmit, func(a, b int) bool {
		return st.decisions[byAdmit[a]].admitUS < st.decisions[byAdmit[b]].admitUS
	})

	deadlines := make([]int64, len(st.reqs))
	tree := make(fenwick, len(done)+1)
	k := 0
	for _, idx := range byAdmit {
		admit := st.decisions[idx].admitUS
		for ; k < len(byDone) && st.finDone[byDone[k]] <= admit; k++ {
			tree.add(rank[byDone[k]])
		}
		if k >= hedgeMinSamples {
			deadlines[idx] = latency(byLatency[tree.find(simtrace.NearestRank(k, 95))-1])
		}
	}
	return deadlines
}

// fenwick is a binary indexed tree of counts over positions 1..len-1.
type fenwick []int

// add counts one more element at position i.
func (t fenwick) add(i int) {
	for ; i < len(t); i += i & -i {
		t[i]++
	}
}

// find returns the smallest position whose prefix count reaches k (k ≥ 1
// and at most the total count).
func (t fenwick) find(k int) int {
	pos := 0
	for step := 1 << (bits.Len(uint(len(t)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(t) && t[next] < k {
			pos = next
			k -= t[next]
		}
	}
	return pos + 1
}

// hedgeTarget picks request idx's hedge destination: the first non-primary
// member of the key's admission-epoch replica set that is still a member at
// issue time and not crashed by then (-1: no eligible replica).
func (st *runState) hedgeTarget(idx int, issueUS int64) int {
	d := &st.decisions[idx]
	reps := st.rings[d.epoch].ReplicaSet(st.reqs[idx].Key, st.cfg.Replicas)
	issueRing := st.rings[st.events.epochAt(issueUS)]
	for _, c := range reps[1:] {
		if c == d.shard || !issueRing.Member(c) {
			continue
		}
		if st.dead[c] && st.crashUS[c] <= issueUS {
			continue
		}
		return c
	}
	return -1
}

// hedge issues replica hedges for every completed request whose primary
// response was outstanding past its deadline, runs the hedge lane (its own
// per-replica schedulers, derived seeds, losers cancelled at the primary's
// completion), and records the winners. The loop visits requests in index
// order and every input is already deterministic, so the hedge plan —
// and thus the whole run — stays a pure function of (stream, config, seed).
func (st *runState) hedge() error {
	if st.cfg.HedgeUS == 0 {
		return nil
	}
	var auto []int64
	if st.cfg.HedgeUS == HedgeAuto {
		auto = st.autoDeadlines()
	}
	st.laneJobs = make([][]partserver.Job, st.numShards)
	issued := false
	for idx := range st.reqs {
		d := &st.decisions[idx]
		if d.shard < 0 || st.finStatus[idx] != partserver.StatusDone {
			continue
		}
		deadline := st.cfg.HedgeUS
		if auto != nil {
			deadline = auto[idx]
		}
		if deadline <= 0 || st.finDone[idx]-d.admitUS <= deadline {
			continue
		}
		issueUS := d.admitUS + deadline
		c := st.hedgeTarget(idx, issueUS)
		if c < 0 {
			continue
		}
		job := st.reqs[idx].Job
		job.Tag = int64(idx)
		job.ArrivalUS = issueUS
		// First completion wins: the hedge is cancelled through the
		// scheduler's cancel path the instant the primary finishes, unless
		// it is already executing (then it completes as wasted work).
		if job.CancelAtUS == 0 || st.finDone[idx] < job.CancelAtUS {
			job.CancelAtUS = st.finDone[idx]
		}
		d.hedged = true
		d.hedgeShard = c
		d.hedgeIssueUS = issueUS
		st.lanePos[idx] = len(st.laneJobs[c])
		st.laneJobs[c] = append(st.laneJobs[c], job)
		st.plumb.record(issueUS, "hedge_issued", idx, int64(c))
		issued = true
	}
	if !issued {
		return nil
	}
	reps, err := st.runShards(st.laneJobs, st.plumb.laneRecorder, hedgeLaneSalt, "hedge")
	if err != nil {
		return err
	}
	st.laneReps = reps
	for s := range reps {
		if reps[s] == nil {
			continue
		}
		for k := range reps[s].Results {
			jr := &reps[s].Results[k]
			idx := int(jr.Tag)
			d := &st.decisions[idx]
			st.laneRes[idx] = jr
			d.hedgeDoneUS = jr.DoneUS
			if jr.Status == partserver.StatusDone && jr.DoneUS < st.finDone[idx] {
				d.hedgeWon = true
				st.plumb.record(jr.DoneUS, "hedge_won", idx, int64(d.hedgeShard))
			}
		}
	}
	return nil
}

// Run routes reqs across the configured shard pool and blocks until every
// admitted request completes on its shard. The full request stream is
// supplied up front because deterministic virtual-time admission needs the
// arrival order independent of host scheduling.
//
// The run proceeds in phases, each a pure function of the previous ones:
// route (admission decisions on the per-epoch rings), migrate (handoff
// barriers of the membership schedule, one planning pass per event), serve
// (the primary lane on real concurrent goroutines, harvested in shard
// order), hedge (the replica hedge lane, HedgeAuto deadlines from one
// O(n log n) sweep), gather (the merged report). Planning and serve passes
// share a per-shard memo: a shard is simulated again only when a handoff
// changed its job list, so a run that delays no handoff simulates each
// shard once. Same seed + requests + config therefore render a
// byte-identical Report, trace and metrics snapshot, even under the race
// detector; a static, unhedged configuration takes the
// exact single-pass path — and produces the exact bytes — of the
// pre-membership router.
func Run(reqs []Request, cfg Config) (rep *Report, err error) {
	defer guardSimulator(&err)
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for i := range reqs {
		if reqs[i].Tenant < 0 {
			return nil, fmt.Errorf("cluster: request %d negative tenant %d", i, reqs[i].Tenant)
		}
		if reqs[i].Job.ArrivalUS < 0 {
			return nil, fmt.Errorf("cluster: request %d negative arrival %d", i, reqs[i].Job.ArrivalUS)
		}
	}

	st, err := newRunState(reqs, cfg)
	if err != nil {
		return nil, err
	}
	// Causal capture: the flight merge is deferred so a failed run still
	// dumps a postmortem.
	defer st.plumb.finishFlight()

	st.route()
	if err := st.migrate(); err != nil {
		return nil, err
	}
	if err := st.serve(); err != nil {
		return nil, err
	}
	if err := st.hedge(); err != nil {
		return nil, err
	}

	st.plumb.buildTraces(st)

	rep = st.gather()
	st.emit(rep)
	return rep, nil
}
