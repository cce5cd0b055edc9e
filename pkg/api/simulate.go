package api

import "fmt"

// ---------------------------------------------------------------------------
// POST /v1/simulate — the kind-dispatched Monte Carlo envelope.

// SimulateRequest is the body of POST /v1/simulate: the kind-independent
// envelope (kind, seed, replications, parallel) plus exactly one payload
// field named after the kind. The pointer fields are mutually exclusive;
// Payload resolves the one matching Kind.
type SimulateRequest struct {
	Kind     string       `json:"kind"`
	MG1      *MG1Sim      `json:"mg1,omitempty"`
	MMm      *MMmSim      `json:"mmm,omitempty"`
	Bandit   *BanditSim   `json:"bandit,omitempty"`
	Restless *RestlessSim `json:"restless,omitempty"`
	Batch    *BatchSim    `json:"batch,omitempty"`
	Jackson  *JacksonSim  `json:"jackson,omitempty"`
	Polling  *PollingSim  `json:"polling,omitempty"`
	MDP      *MDPSim      `json:"mdp,omitempty"`
	FlowShop *FlowShopSim `json:"flowshop,omitempty"`

	Seed uint64 `json:"seed"`
	// Replications is the fixed replication budget. Mutually exclusive
	// with Precision: set exactly one.
	Replications int `json:"replications,omitempty"`
	// Precision switches the request to target-precision mode: the server
	// runs batched replication rounds until the primary metric's CI is
	// tight enough (or MaxReplications is spent) and reports the count in
	// the response's replications_used. Results stay byte-identical for a
	// fixed (spec, seed, precision) at any parallelism.
	Precision *Precision `json:"precision,omitempty"`
	// Antithetic opts the replications into antithetic pairing (substream
	// 2k+1 mirrors substream 2k). Only accepted when every law the
	// scenario samples is inverse-CDF-capable (exponential, uniform,
	// Weibull, deterministic); kinds driven by categorical draws reject
	// it.
	Antithetic bool `json:"antithetic,omitempty"`
	// Parallel caps the worker-pool slots this request's replications fan
	// out over (0 = server default; the server clamps to its own pool).
	// Results never depend on it, and it is excluded from SpecHash.
	Parallel int `json:"parallel,omitempty"`
}

// Precision is the target-precision request block: "give me the primary
// metric to ±TargetCI95 (relative, e.g. 0.01 = ±1%) at the given
// confidence, spending at most MaxReplications".
type Precision struct {
	// TargetCI95 is the target CI half-width as a fraction of the
	// estimated |mean| of the scenario's primary metric.
	TargetCI95 float64 `json:"target_ci95"`
	// Confidence selects the stopping rule's confidence level (0 selects
	// 0.95). Reported ci95 response fields remain 95% half-widths
	// regardless, so the knob never changes response bytes for a given
	// stopping point.
	Confidence float64 `json:"confidence,omitempty"`
	// MaxReplications is the hard budget ceiling; the work-budget check
	// (per-replication work × MaxReplications) is enforced against it.
	MaxReplications int `json:"max_replications"`
}

// Payload returns the payload field matching Kind, or an error when the
// request carries none (or one under a different kind). Kinds this struct
// has no field for can still be sent raw — see pkg/client.
func (r *SimulateRequest) Payload() (any, error) {
	var p any
	switch r.Kind {
	case "mg1":
		if r.MG1 != nil {
			p = r.MG1
		}
	case "mmm":
		if r.MMm != nil {
			p = r.MMm
		}
	case "bandit":
		if r.Bandit != nil {
			p = r.Bandit
		}
	case "restless":
		if r.Restless != nil {
			p = r.Restless
		}
	case "batch":
		if r.Batch != nil {
			p = r.Batch
		}
	case "jackson":
		if r.Jackson != nil {
			p = r.Jackson
		}
	case "polling":
		if r.Polling != nil {
			p = r.Polling
		}
	case "mdp":
		if r.MDP != nil {
			p = r.MDP
		}
	case "flowshop":
		if r.FlowShop != nil {
			p = r.FlowShop
		}
	default:
		return nil, fmt.Errorf("api: kind %q has no typed payload field", r.Kind)
	}
	if p == nil {
		return nil, fmt.Errorf("api: kind %s needs exactly the %s payload field", r.Kind, r.Kind)
	}
	return p, nil
}

// SpecHash returns the request's canonical content hash — the memoization
// key the server uses and the spec_hash its response will echo. Clients
// use it for retry idempotency and response integrity checks.
func (r *SimulateRequest) SpecHash() (string, error) {
	payload, err := r.Payload()
	if err != nil {
		return "", err
	}
	reps := r.Replications
	if r.Precision != nil {
		// Target-precision requests hash with replications = 0 — a value no
		// valid fixed request can carry — so the two modes never collide.
		reps = 0
	}
	return SimulateHashOpts(r.Kind, payload, r.Seed, reps, r.Precision, r.Antithetic)
}

// SimulateResponse is the body of a /v1/simulate response: the
// kind-independent envelope plus one result fragment under the kind name.
type SimulateResponse struct {
	SpecHash     string `json:"spec_hash"`
	Seed         uint64 `json:"seed"`
	Replications int64  `json:"replications"`
	// ReplicationsUsed is the replication count the sequential stopping rule
	// actually spent; present only on target-precision responses (fixed-budget
	// response bytes are unchanged). Replications echoes max_replications.
	ReplicationsUsed int64 `json:"replications_used,omitempty"`

	MG1      *MG1Result      `json:"mg1,omitempty"`
	MMm      *MMmResult      `json:"mmm,omitempty"`
	Bandit   *BanditResult   `json:"bandit,omitempty"`
	Restless *RestlessResult `json:"restless,omitempty"`
	Batch    *BatchResult    `json:"batch,omitempty"`
	Jackson  *JacksonResult  `json:"jackson,omitempty"`
	Polling  *PollingResult  `json:"polling,omitempty"`
	MDP      *MDPResult      `json:"mdp,omitempty"`
	FlowShop *FlowShopResult `json:"flowshop,omitempty"`
}

// ---------------------------------------------------------------------------
// Per-kind simulate payloads and results.

// MG1Sim parameterizes an M/G/1 simulation: the system spec, the discipline
// ("cmu", "fifo", or "klimov" for feedback systems), and the horizon.
type MG1Sim struct {
	Spec    MG1     `json:"spec"`
	Policy  string  `json:"policy"`
	Horizon float64 `json:"horizon"`
	Burnin  float64 `json:"burnin"`
}

// MG1Result carries replication means for the queueing simulation. For
// feedback (Klimov) systems only the cost rate is estimated.
type MG1Result struct {
	Policy       string    `json:"policy"`
	Order        []int     `json:"order,omitempty"`
	L            []float64 `json:"l,omitempty"`
	Wq           []float64 `json:"wq,omitempty"`
	CostRateMean float64   `json:"cost_rate_mean"`
	CostRateCI95 float64   `json:"cost_rate_ci95"`
}

// MMmSim parameterizes a multiclass M/M/m simulation: the system spec,
// the discipline ("cmu" static priorities or "fifo"), and the horizon.
type MMmSim struct {
	Spec    MMm     `json:"spec"`
	Policy  string  `json:"policy"`
	Horizon float64 `json:"horizon"`
	Burnin  float64 `json:"burnin"`
}

// MMmResult carries replication means for the M/M/m simulation: per-class
// time-average numbers in system and the holding-cost rate.
type MMmResult struct {
	Policy       string    `json:"policy"`
	Order        []int     `json:"order,omitempty"`
	Servers      int       `json:"servers"`
	L            []float64 `json:"l,omitempty"`
	CostRateMean float64   `json:"cost_rate_mean"`
	CostRateCI95 float64   `json:"cost_rate_ci95"`
}

// BanditSim parameterizes a bandit simulation: the system spec, the
// component start states, and the selection policy ("gittins", the default,
// or "greedy" — the one-step myopic baseline).
type BanditSim struct {
	Spec   BanditSystem `json:"spec"`
	Start  []int        `json:"start"`
	Policy string       `json:"policy,omitempty"`
}

// BanditResult carries the discounted-reward estimate under the selected
// policy.
type BanditResult struct {
	Policy     string  `json:"policy"`
	RewardMean float64 `json:"reward_mean"`
	RewardCI95 float64 `json:"reward_ci95"`
}

// RestlessSim parameterizes a restless-fleet simulation: N iid copies of
// one two-action restless project, M of which are activated every epoch by
// a static state-priority rule — "whittle" (scores = Whittle indices),
// "myopic" (scores = one-step activation advantage R₁ − R₀), or "random"
// (the unprioritized baseline). Average reward per epoch is measured over
// [burnin, horizon).
type RestlessSim struct {
	Spec    Restless `json:"spec"`
	N       int      `json:"n"`
	M       int      `json:"m"`
	Policy  string   `json:"policy"`
	Horizon int      `json:"horizon"`
	Burnin  int      `json:"burnin"`
}

// RestlessResult carries the average-reward-per-epoch estimate of the
// fleet under the selected activation rule.
type RestlessResult struct {
	Policy     string  `json:"policy"`
	RewardMean float64 `json:"reward_mean"`
	RewardCI95 float64 `json:"reward_ci95"`
}

// BatchSim parameterizes a parallel-machine batch simulation: the instance
// spec, the list policy computing the dispatch order ("wsept", "sept", or
// "lept"), and the objective sweeps compare on ("weighted_flowtime", the
// default; "flowtime"; or "makespan"). All three objectives are always
// reported — the objective knob only selects the comparison metric.
type BatchSim struct {
	Spec      Batch  `json:"spec"`
	Policy    string `json:"policy"`
	Objective string `json:"objective,omitempty"`
}

// BatchResult carries the replication estimates of one list policy on
// identical parallel machines: the dispatch order and all three realized
// objectives.
type BatchResult struct {
	Policy               string  `json:"policy"`
	Objective            string  `json:"objective"`
	Order                []int   `json:"order"`
	MakespanMean         float64 `json:"makespan_mean"`
	MakespanCI95         float64 `json:"makespan_ci95"`
	FlowtimeMean         float64 `json:"flowtime_mean"`
	FlowtimeCI95         float64 `json:"flowtime_ci95"`
	WeightedFlowtimeMean float64 `json:"weighted_flowtime_mean"`
	WeightedFlowtimeCI95 float64 `json:"weighted_flowtime_ci95"`
}

// JacksonSim parameterizes an open-network simulation: the network spec,
// the per-station static priority rule ("cmu" by descending hold-cost ×
// service rate, "fcfs" by class index, or "lbfs" in reverse — the
// last-buffer-first direction that destabilizes the Lu–Kumar network),
// and the horizon.
type JacksonSim struct {
	Spec    Network `json:"spec"`
	Policy  string  `json:"policy"`
	Horizon float64 `json:"horizon"`
	Burnin  float64 `json:"burnin"`
}

// JacksonResult carries replication means for the network simulation:
// per-class time-average numbers in system and the holding-cost rate.
type JacksonResult struct {
	Policy       string    `json:"policy"`
	L            []float64 `json:"l"`
	CostRateMean float64   `json:"cost_rate_mean"`
	CostRateCI95 float64   `json:"cost_rate_ci95"`
}

// PollingSim parameterizes a polling-system simulation: the spec, the
// service regime as the policy ("exhaustive", "gated", or "limited" for
// 1-limited), and the horizon.
type PollingSim struct {
	Spec    Polling `json:"spec"`
	Policy  string  `json:"policy"`
	Horizon float64 `json:"horizon"`
	Burnin  float64 `json:"burnin"`
}

// PollingResult carries replication means for the polling simulation:
// per-queue time-average numbers in system, mean waits, and the
// holding-cost rate.
type PollingResult struct {
	Policy       string    `json:"policy"`
	L            []float64 `json:"l"`
	Wq           []float64 `json:"wq"`
	CostRateMean float64   `json:"cost_rate_mean"`
	CostRateCI95 float64   `json:"cost_rate_ci95"`
}

// MDPSim parameterizes an average-reward MDP simulation: the spec, the
// policy ("optimal" via relative value iteration, "myopic" best immediate
// reward, or "random"), the start state, and the epoch horizon. Average
// reward per epoch is measured over [burnin, horizon).
type MDPSim struct {
	Spec    MDP    `json:"spec"`
	Policy  string `json:"policy"`
	Start   int    `json:"start,omitempty"`
	Horizon int    `json:"horizon"`
	Burnin  int    `json:"burnin"`
}

// MDPResult carries the average-reward-per-epoch estimate. For stationary
// policies Actions lists the action taken in each state.
type MDPResult struct {
	Policy     string  `json:"policy"`
	Actions    []int   `json:"actions,omitempty"`
	RewardMean float64 `json:"reward_mean"`
	RewardCI95 float64 `json:"reward_ci95"`
}

// FlowShopSim parameterizes a batch-shop simulation. The policy set
// depends on the spec variant: flow shop — "talwar" (two exponential
// stages only), "sept", "lept"; tree — "hlf", "llf", "random"; sevcik —
// "sevcik" (preemptive Sevcik-index rule), "wsept" (nonpreemptive
// baseline).
type FlowShopSim struct {
	Spec   FlowShop `json:"spec"`
	Policy string   `json:"policy"`
}

// FlowShopResult carries the replication estimate of the variant's
// objective: expected makespan (flowshop/tree variants) or expected
// weighted flowtime (sevcik). Order is the static sequence when the
// policy fixes one up front.
type FlowShopResult struct {
	Policy  string  `json:"policy"`
	Variant string  `json:"variant"`
	Metric  string  `json:"metric"`
	Order   []int   `json:"order,omitempty"`
	Mean    float64 `json:"mean"`
	CI95    float64 `json:"ci95"`
}
