// Package scenario is the pluggable model layer of the simulation service:
// one registered Scenario per simulate kind, resolved by every consumer —
// the HTTP service (internal/service), the sweep engine (internal/sweep),
// and the CLIs — through the same registry, so adding a simulate kind is a
// single file in this package plus its registration line instead of a
// parallel switch ladder in four layers.
//
// A Scenario is a plain struct of the kind's functions:
//
//   - Name, the wire name (the request's "kind" value, which is also the
//     name of the payload field and of the result fragment in the response
//     body);
//   - Parse, strict payload parsing plus the request-shape checks cheap
//     enough to run on every request, cache hits included;
//   - Work, per-replication work accounting, so the serving layer can
//     enforce one work budget across all kinds;
//   - Policies, the kind's one policy list, which sweeps substitute at
//     "<kind>.policy" so any kind is sweepable without the sweep layer
//     knowing it;
//   - Prepare, the kind's one check — policy membership, spec conversion,
//     antithetic admissibility — which returns the simulation to run;
//   - Outcome, metric extraction from an encoded response body, which is
//     how sweep rows compare policies without decoding kind-specific
//     shapes; and
//   - Index, the optional closed-form index capability of POST /v1/index.
//
// Validate (sweep submission) and Simulate (POST /v1/simulate) are written
// once, here, on top of Prepare, so submission and execution run the same
// checks in the same order and can never disagree. The prepared Sim runs
// on an internal/engine pool, so the result is byte-identical at every
// parallelism level for a fixed seed.
//
// Scenarios register themselves in an init function; importing the package
// is enough to populate the registry.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"stochsched/internal/engine"
	"stochsched/internal/rng"
	"stochsched/internal/stats"
)

// Scenario is one pluggable simulate kind. The functions are stateless;
// the payload returned by Parse is threaded back into the others, which
// type-assert it.
type Scenario struct {
	// Name is the wire name: the request's "kind" value, the name of the
	// payload field beside it, and the key of the result fragment in the
	// response body.
	Name string

	// Parse strictly decodes the kind's payload field (unknown fields are
	// errors) and enforces the request-shape invariants that are cheap
	// enough to run on every request. Spec checks wait for Prepare, so
	// cache hits never pay for them.
	Parse func(raw json.RawMessage) (any, error)

	// Work estimates the simulated work units of ONE replication of the
	// payload (a horizon, an episode scale, a job count). The serving layer
	// multiplies by the replication count and enforces its work budget
	// uniformly across kinds.
	Work func(payload any) float64

	// Policies enumerates the policy values the payload supports, in a
	// stable order, highest-fidelity first. It is the kind's only policy
	// list: Prepare checks membership against it. The slice is shared;
	// callers must not modify it.
	Policies func(payload any) []string

	// Prepare runs every check of a parsed payload under opts — policy
	// membership first, then spec conversion and antithetic admissibility,
	// in a fixed per-kind order that decides which fault a body with
	// several reports — and returns the simulation to run. Its errors are
	// the client's. It does no solver work (indices, optimal policies):
	// that runs inside the Sim, so validation stays cheap and a solver
	// failure is not a 400.
	Prepare func(payload any, opts SimOpts) (Sim, error)

	// Outcome extracts the sweep comparison metric from an encoded
	// /v1/simulate response body of this kind. policy is the sweep's
	// substituted policy value ("" for a base-as-is cell, which takes the
	// body's own).
	Outcome func(policy string, resp []byte) (Outcome, error)

	// Index, when non-nil, is the kind's closed-form index capability,
	// served by POST /v1/index.
	Index *Index
}

// Sim is a prepared simulation. It hands its model's one-replication
// simulator and a fold to replicate, which spends the budget x carries, and
// returns the kind-keyed result fragment of the response body. The fragment
// must be plain data (no maps) so its encoding is canonical, and a pure
// function of (payload, seed, budget) — never of the pool size.
type Sim func(ctx context.Context, x *Exec) (any, error)

// SimOpts carries the request-envelope execution knobs into Prepare and
// Simulate: the target-precision block and the antithetic toggle. The zero
// value is the fixed-budget independent-replications mode.
type SimOpts struct {
	// Precision, when non-nil, switches to target-precision mode: reps is
	// ignored and replication rounds run until the primary metric's CI is
	// tight enough or Precision.MaxReplications is spent.
	Precision *engine.Precision
	// Antithetic pairs substreams antithetically (2k+1 mirrors 2k). Kinds
	// whose sampling is not entirely inverse-CDF-capable reject it in
	// Prepare.
	Antithetic bool
}

// PolicyPath returns the dot-path inside the request body where sweeps
// substitute Policies values: always "<kind>.policy".
func (s *Scenario) PolicyPath() string { return s.Name + ".policy" }

// Validate runs Prepare and drops the simulation: the checks Simulate runs,
// in its order and with its messages, without executing anything. Sweep
// submission runs it on every expanded cell. Errors are wrapped in BadSpec.
func (s *Scenario) Validate(payload any, opts SimOpts) error {
	if _, err := s.Prepare(payload, opts); err != nil {
		return BadSpec{err}
	}
	return nil
}

// Simulate prepares the payload and runs it on the pool. It returns the
// kind-keyed result fragment of the response body plus the replication
// count actually spent: reps in fixed-budget mode, the sequential stopping
// rule's count in target-precision mode (where reps is ignored). Prepare's
// errors are wrapped in BadSpec; errors of the run itself (solver
// failures, cancellation) are not.
func (s *Scenario) Simulate(ctx context.Context, pool *engine.Pool, payload any, seed uint64, reps int, opts SimOpts) (any, int, error) {
	sim, err := s.Prepare(payload, opts)
	if err != nil {
		return nil, 0, BadSpec{err}
	}
	x := &Exec{pool: pool, src: rng.New(seed), reps: reps, precision: opts.Precision}
	if opts.Antithetic {
		x.src.Antithetic()
	}
	frag, err := sim(ctx, x)
	if err != nil {
		return nil, 0, err
	}
	return frag, x.used, nil
}

// Exec carries one request's execution through a Sim to replicate: the
// pool, the root substream source (rng.New(seed), with antithetic pairing
// armed when requested), and the replication budget.
type Exec struct {
	pool      *engine.Pool
	src       *rng.Stream
	reps      int
	precision *engine.Precision
	used      int
}

// replicate spends x's budget on sim, which simulates one replication on
// the substream it is handed, through engine.ReplicateReduce: one round of
// the fixed count, or engine.AdaptiveRounds re-checking the stopping rule
// on primary after each round. fold consumes the results in replication
// order into the Sim's accumulators (primary among them). Each round
// continues x.src and the accumulators where the last stopped, so an
// adaptive result is byte-identical to a fixed-budget run of the count
// spent.
func replicate[T any](ctx context.Context, x *Exec, primary *stats.Running, sim func(s *rng.Stream) (T, error), fold func(T)) error {
	round := func(ctx context.Context, n int) error {
		return engine.ReplicateReduce(ctx, x.pool, n, x.src, sim, fold)
	}
	if x.precision == nil {
		x.used = x.reps
		return round(ctx, x.reps)
	}
	pr := *x.precision
	var err error
	x.used, err = engine.AdaptiveRounds(ctx, pr, round, func() bool { return pr.Met(primary) })
	return err
}

// checkPolicy is the policy-membership check of every kind whose message
// has the shared form: policy must be one of list, the kind's Policies.
func checkPolicy(kind, policy string, list []string) error {
	if slices.Contains(list, policy) {
		return nil
	}
	return fmt.Errorf("unknown %s policy %q (want %s)", kind, policy, orList(list))
}

// orList renders a list as "a", "a or b", or "a, b, or c".
func orList(list []string) string {
	n := len(list)
	if n <= 2 {
		return strings.Join(list, " or ")
	}
	return strings.Join(list[:n-1], ", ") + ", or " + list[n-1]
}

// errAntithetic is the uniform rejection for kinds (or spec variants) whose
// sampling involves categorical or acceptance-based draws that antithetic
// mirroring cannot pair meaningfully.
func errAntithetic(kind, why string) error {
	return fmt.Errorf("kind %s does not support antithetic replications: %s", kind, why)
}

// strict is the parser of a payload that needs no checks beyond
// DecodeStrict's: it decodes raw into a fresh T.
func strict[T any](raw json.RawMessage) (any, error) {
	v := new(T)
	if err := DecodeStrict(raw, v); err != nil {
		return nil, err
	}
	return v, nil
}

// checked is the parser of a payload with request-shape invariants: strict,
// then check on the decoded value.
func checked[T any](check func(*T) error) func(json.RawMessage) (any, error) {
	return func(raw json.RawMessage) (any, error) {
		v, err := strict[T](raw)
		if err != nil {
			return nil, err
		}
		if err := check(v.(*T)); err != nil {
			return nil, err
		}
		return v, nil
	}
}

// window is the shape check of a steady-state run's observation window.
func window[T int | float64](burnin, horizon T) error {
	if burnin < 0 || horizon <= burnin {
		return fmt.Errorf("need 0 <= burnin < horizon, got burnin=%v horizon=%v", burnin, horizon)
	}
	return nil
}

// means returns the mean of each accumulator.
func means(rs []stats.Running) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = rs[i].Mean()
	}
	return out
}

// Outcome is one cell's contribution to a sweep comparison row: the named
// metric, its orientation, and the replication estimate.
type Outcome struct {
	// Policy labels the cell in comparison rows.
	Policy string
	// SpecHash is the cell's canonical request hash, echoed from the body.
	SpecHash string
	// Metric names the compared quantity ("cost_rate", "reward",
	// "makespan", …).
	Metric string
	// HigherIsBetter orients the comparison: regret is mean − best for
	// cost-like metrics and best − mean for reward-like ones.
	HigherIsBetter bool
	// Mean and CI95 are the replication mean and 95% CI half-width.
	Mean, CI95 float64
	// ReplicationsUsed is the sequential stopping rule's spend, read from
	// the kind-independent response envelope (zero for fixed-budget
	// cells).
	ReplicationsUsed int64
}

// outcome builds a kind's Outcome: it decodes a simulate response body of
// kind once — spec_hash and replications_used from the envelope, the
// result fragment under the kind's name into R — and lets pick name the
// compared metric. Only pick differs between kinds. pick labels the cell
// with the fragment's own policy; a substituted policy (non-empty)
// overrides it.
func outcome[R any](kind string, pick func(*R) Outcome) func(policy string, resp []byte) (Outcome, error) {
	return func(policy string, resp []byte) (Outcome, error) {
		var (
			fields   map[string]json.RawMessage
			frag     *R
			specHash string
			used     int64
		)
		err := json.Unmarshal(resp, &fields)
		for _, f := range []struct {
			name string
			dst  any
		}{{"spec_hash", &specHash}, {"replications_used", &used}, {kind, &frag}} {
			if raw, ok := fields[f.name]; ok && err == nil {
				err = json.Unmarshal(raw, f.dst)
			}
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("decoding %s simulate response: %v", kind, err)
		}
		if frag == nil {
			return Outcome{}, fmt.Errorf("simulate response carries no %s result", kind)
		}
		out := pick(frag)
		if policy != "" {
			out.Policy = policy
		}
		out.SpecHash, out.ReplicationsUsed = specHash, used
		return out, nil
	}
}

// BadSpec marks an error as the client's fault — a malformed request or a
// malformed or infeasible spec. It is the serving layer's one 400 marker:
// parse failures, validation failures and spec errors discovered during a
// computation all map to HTTP 400 through it.
type BadSpec struct{ Err error }

func (e BadSpec) Error() string { return e.Err.Error() }
func (e BadSpec) Unwrap() error { return e.Err }

// ---------------------------------------------------------------------------
// Registry

var (
	regMu    sync.RWMutex
	registry = make(map[string]*Scenario)
)

// Register adds a scenario to the registry. It panics on a duplicate kind:
// registration happens in init functions, where a collision is a programming
// error, not a runtime condition.
func Register(s *Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate registration of kind " + s.Name)
	}
	registry[s.Name] = s
}

// Lookup resolves a kind name.
func Lookup(kind string) (*Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[kind]
	return s, ok
}

// Kinds returns every registered kind name, sorted.
func Kinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
