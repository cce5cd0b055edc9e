package api

// ---------------------------------------------------------------------------
// POST /v1/index — analytic index/priority computation, kind-dispatched
// like /v1/simulate: {"kind":"bandit","bandit":<Bandit>} answers a
// GittinsResponse, {"kind":"restless","restless":<WhittleRequest>} a
// WhittleResponse, and {"kind":"mg1"|"mmm"|"batch",…} a PriorityResponse.

// IndexRequest is the body of POST /v1/index: the kind plus exactly one
// payload field named after the kind.
type IndexRequest struct {
	Kind     string          `json:"kind"`
	Bandit   *Bandit         `json:"bandit,omitempty"`
	Restless *WhittleRequest `json:"restless,omitempty"`
	MG1      *MG1            `json:"mg1,omitempty"`
	MMm      *MMm            `json:"mmm,omitempty"`
	Batch    *Batch          `json:"batch,omitempty"`
	Jackson  *Network        `json:"jackson,omitempty"`
	MDP      *MDP            `json:"mdp,omitempty"`
}

// WhittleRequest is the "restless" index payload: a restless project spec
// plus the optional indexability check and fleet sizes. Its flattened
// encoding is the restless index spec_hash.
type WhittleRequest struct {
	Restless
	// CheckIndexability additionally sweeps the subsidy range and reports
	// whether the passive set grows monotonically (more expensive).
	CheckIndexability bool `json:"check_indexability,omitempty"`
	// N and M (both optional) additionally solve the Whittle LP relaxation
	// of a fleet of N iid copies with M activated per epoch, reporting the
	// fleet-wide average-reward upper bound and the primal-dual indices.
	N int `json:"n,omitempty"`
	M int `json:"m,omitempty"`
}

// PriorityRequest is the /v1/index body of the two priority kinds: Kind
// selects "mg1" (cµ order; Klimov order when the spec has feedback) or
// "batch" (WSEPT/SEPT/LEPT orders). The shape is a valid IndexRequest, and
// its encoding is the mg1 and batch index spec_hash.
type PriorityRequest struct {
	Kind  string `json:"kind"`
	MG1   *MG1   `json:"mg1,omitempty"`
	Batch *Batch `json:"batch,omitempty"`
}

// GittinsResponse is the body of a gittins index response (kind "bandit").
type GittinsResponse struct {
	SpecHash string    `json:"spec_hash"`
	States   int       `json:"states"`
	Beta     float64   `json:"beta"`
	Restart  []float64 `json:"gittins_restart"`
	Largest  []float64 `json:"gittins_largest_index"`
}

// WhittleResponse is the body of a whittle index response (kind "restless").
type WhittleResponse struct {
	SpecHash  string    `json:"spec_hash"`
	States    int       `json:"states"`
	Beta      float64   `json:"beta"`
	Whittle   []float64 `json:"whittle"`
	Indexable *bool     `json:"indexable,omitempty"`

	// Set when the request carried fleet sizes (n, m): the LP-relaxation
	// upper bound on the fleet's achievable average reward per epoch and
	// the per-state primal-dual activation indices.
	LPBound *float64  `json:"lp_bound,omitempty"`
	PDIndex []float64 `json:"pd_index,omitempty"`
}

// PriorityResponse is the body of a priority response (kinds "mg1" and
// "batch"). Order lists class/job indices highest priority first; Indices
// holds the per-class priority indices (cµ values, Klimov indices, or
// Smith ratios).
type PriorityResponse struct {
	SpecHash string    `json:"spec_hash"`
	Rule     string    `json:"rule"`
	Order    []int     `json:"order"`
	Indices  []float64 `json:"indices"`

	// Feedback-free mg1 only: exact Cobham delays, numbers in system, and
	// holding-cost rate under Order.
	Wq       []float64 `json:"wq,omitempty"`
	L        []float64 `json:"l,omitempty"`
	CostRate *float64  `json:"cost_rate,omitempty"`

	// mmm only: the server count, the Erlang-C probability that an arrival
	// must wait, and the fast-single-server (speed-m M/M/1) lower bound on
	// the optimal holding-cost rate. For mmm, Wq/L/CostRate hold the
	// multiserver Cobham values under Order — exact when every class shares
	// one service rate, the standard pooled-rate approximation otherwise.
	Servers              int      `json:"servers,omitempty"`
	ErlangC              *float64 `json:"erlang_c,omitempty"`
	FastSingleServerCost *float64 `json:"fast_single_server_cost,omitempty"`

	// Batch only: the companion orders and, on a single machine, the exact
	// expected weighted flowtime of the WSEPT order.
	SEPT                  []int    `json:"sept,omitempty"`
	LEPT                  []int    `json:"lept,omitempty"`
	ExactWeightedFlowtime *float64 `json:"exact_weighted_flowtime,omitempty"`

	// Feedback-free mg1 with at most 8 classes only: the Klimov fluid-limit
	// optimal drain order (starting from the exact steady-state L) and its
	// fluid holding cost.
	FluidOrder     []int    `json:"fluid_order,omitempty"`
	FluidDrainCost *float64 `json:"fluid_drain_cost,omitempty"`
}

// JacksonResponse is the body of a jackson index response: the product-form
// steady state of a stable Jackson network — effective class arrival rates
// from the traffic equations, per-station loads and mean queue lengths
// (L = ρ/(1−ρ)), the per-class split of station lengths by arrival-rate
// share, and the implied holding-cost rate.
type JacksonResponse struct {
	SpecHash     string    `json:"spec_hash"`
	Stations     int       `json:"stations"`
	Lambda       []float64 `json:"lambda"`
	StationLoads []float64 `json:"station_loads"`
	StationL     []float64 `json:"station_l"`
	L            []float64 `json:"l"`
	CostRate     float64   `json:"cost_rate"`
}

// MDPResponse is the body of an mdp index response: the optimal average
// reward (gain) from relative value iteration with its bias vector and
// stationary optimal policy, cross-checked by the occupation-measure LP
// (LPGain ≈ Gain up to solver tolerance).
type MDPResponse struct {
	SpecHash string    `json:"spec_hash"`
	States   int       `json:"states"`
	Actions  int       `json:"actions"`
	Gain     float64   `json:"gain"`
	LPGain   float64   `json:"lp_gain"`
	Bias     []float64 `json:"bias"`
	Policy   []int     `json:"policy"`
}
