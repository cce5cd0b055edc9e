// Package sweep turns the single-request policy service into an experiment
// platform: it expands a base /v1/simulate request plus a declarative
// parameter grid and a list of policies into a deterministic DAG of
// simulation cells, executes the cells on an internal/engine worker pool
// with per-cell memoization through the serving layer's cache, and folds
// the results back into per-point policy-comparison rows (mean, CI
// half-width, regret against the best policy) emitted in grid order.
//
// The subsystem has two halves:
//
//   - Execution (this file): Expand turns a request into a Plan — the
//     ordered list of fully-substituted request bodies — and Execute runs a
//     plan, streaming one comparison Row per grid point. Rows are reduced
//     strictly in grid order by engine.ReduceProgress, so the NDJSON
//     encoding of the results is byte-identical at every parallelism level
//     for a fixed (base, grid, policies): the same guarantee the engine
//     gives each individual simulation, lifted to the whole sweep (see
//     docs/determinism.md).
//   - Jobs (job.go): Manager owns a bounded store of asynchronous sweep
//     jobs with progress counters, streaming readers, cancellation, and
//     oldest-terminal eviction. The HTTP layer (internal/service) exposes it
//     as POST /v1/sweep, GET /v1/sweep/{id}[/results], DELETE /v1/sweep/{id};
//     cmd/stochsched's sweep subcommand drives Execute in-process.
//
// The package deliberately does not import internal/service: it consumes a
// small Backend interface (validate one cell, execute one cell), which the
// service implements with the call pipeline its HTTP traffic takes — ring
// routing, sharded cache, admission queue — so every cell a sweep shares
// with earlier traffic, or with another point of the same sweep, is a
// cache hit rather than a recompute.
package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"stochsched/internal/engine"
	"stochsched/internal/scenario"
	"stochsched/pkg/api"
)

// Backend executes individual sweep cells. internal/service implements it
// with its call pipeline (hits are shared with HTTP traffic); tests
// implement it directly.
type Backend interface {
	// ValidateSimulate reports whether body is a well-formed, fully valid
	// /v1/simulate request, without executing it: the checks /v1/simulate
	// runs, under the body's own options, with its messages.
	ValidateSimulate(body []byte) error
	// Simulate executes (or serves from cache) a /v1/simulate request body
	// and returns the encoded response.
	Simulate(ctx context.Context, body []byte) ([]byte, error)
}

// DecodeRequest parses data as a sweep submission (the body of POST
// /v1/sweep) with the strictness the API promises: unknown fields and
// trailing data are errors. The HTTP handler and the CLI both decode
// through here, so they can never disagree about what a well-formed sweep
// request is.
func DecodeRequest(data []byte) (*api.SweepRequest, error) {
	var req api.SweepRequest
	if err := scenario.DecodeStrict(data, &req); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return &req, nil
}

// identity is the hashed portion of a sweep request: everything that
// determines the results, nothing that only determines the execution
// schedule.
// IndependentStreams is set only when CRN is explicitly disabled, so every
// sweep hash minted before the knob existed is unchanged.
type identity struct {
	Base               json.RawMessage `json:"base"`
	Grid               api.Grid        `json:"grid"`
	Policies           []string        `json:"policies,omitempty"`
	IndependentStreams bool            `json:"independent_streams,omitempty"`
}

// Plan is an expanded sweep: one body per cell, in deterministic order —
// point-major, policies innermost (cell index = point × len(policies) +
// policy index).
type Plan struct {
	Hash     string // canonical sweep hash (base compacted, parallel excluded)
	Points   int
	Policies []string // effective policy list: the request's, or [""] for "base as-is"
	CRN      bool     // whether policies share common random numbers (the default)
	grid     api.Grid
	scn      *scenario.Scenario // resolved from the base body's kind
	cells    [][]byte
}

// Cells returns the total number of simulation cells in the plan.
func (p *Plan) Cells() int { return len(p.cells) }

// Cell returns the fully-substituted /v1/simulate body of cell i.
func (p *Plan) Cell(i int) []byte { return p.cells[i] }

// DefaultMaxCells is the cell budget Expand applies when the caller
// passes maxCells <= 0.
const DefaultMaxCells = 4096

// Expand validates the request shape and materializes every cell body,
// rejecting grids whose points × policies exceed maxCells (<= 0 selects
// DefaultMaxCells) BEFORE any cell is built — a declared-size check, so a
// tiny request body cannot make the server materialize a huge product.
// The backend then validates each cell eagerly, so a grid point that
// produces an invalid spec (an unstable queue, a malformed policy) is
// rejected at submission instead of failing the job halfway through.
func Expand(req *api.SweepRequest, be Backend, maxCells int) (*Plan, error) {
	if maxCells <= 0 {
		maxCells = DefaultMaxCells
	}
	if len(req.Base) == 0 {
		return nil, fmt.Errorf("sweep: request needs a base simulate body")
	}
	if err := req.Grid.Validate(); err != nil {
		return nil, err
	}
	if req.Parallel < 0 || req.Parallel > 1024 {
		return nil, fmt.Errorf("sweep: parallel %d outside [0, 1024]", req.Parallel)
	}
	for i, pol := range req.Policies {
		if pol == "" {
			return nil, fmt.Errorf("sweep: policy %d is empty", i)
		}
		for j := 0; j < i; j++ {
			if req.Policies[j] == pol {
				return nil, fmt.Errorf("sweep: policy %q repeated", pol)
			}
		}
	}

	var compact bytes.Buffer
	if err := json.Compact(&compact, req.Base); err != nil {
		return nil, fmt.Errorf("sweep: base is not valid JSON: %w", err)
	}
	base := compact.Bytes()

	// The base's kind picks the scenario, which owns the policy
	// substitution path and the metric decoding — the sweep layer itself
	// knows nothing kind-specific. The seed feeds per-policy seed
	// derivation when common random numbers are disabled.
	var probe struct {
		Kind string `json:"kind"`
		Seed uint64 `json:"seed"`
	}
	if err := json.Unmarshal(base, &probe); err != nil {
		return nil, fmt.Errorf("sweep: base is not a JSON object: %w", err)
	}
	scn, ok := scenario.Lookup(probe.Kind)
	if !ok {
		return nil, fmt.Errorf("sweep: base has unknown simulate kind %q", probe.Kind)
	}

	crn := req.CRN == nil || *req.CRN
	if !crn && len(req.Policies) == 0 {
		return nil, fmt.Errorf("sweep: crn false needs a policy list to decorrelate")
	}
	policies := req.Policies
	if len(policies) == 0 {
		policies = []string{""}
	}
	// Grid.Size saturates instead of overflowing, and the integer
	// comparison points > maxCells/per is exact for positive ints, so the
	// budget holds for any declarable grid.
	if points := req.Grid.Size(); points > maxCells/len(policies) {
		return nil, fmt.Errorf("%w: %d points × %d policies > %d cells",
			ErrTooLarge, points, len(policies), maxCells)
	}
	plan := &Plan{
		Hash:     api.Hash(&identity{Base: base, Grid: req.Grid, Policies: req.Policies, IndependentStreams: !crn}),
		Points:   req.Grid.Size(),
		Policies: policies,
		CRN:      crn,
		grid:     req.Grid,
		scn:      scn,
	}
	// Every cell is written from one decoded base: each point sets its axis
	// values on a copy of the tree, and each cell its policy (and, without
	// common random numbers, its seed) on the point's tree.
	doc, err := api.ParseDocument(base)
	if err != nil {
		return nil, err
	}
	plan.cells = make([][]byte, 0, plan.Points*len(policies))
	for pt := 0; pt < plan.Points; pt++ {
		point := doc.Clone()
		if err := point.SetPoint(&req.Grid, req.Grid.Point(pt)); err != nil {
			return nil, err
		}
		// Per-policy seeds derive from the point's own seed, which a
		// "seed" axis may have substituted for the base's.
		if !crn {
			body, err := point.Marshal()
			if err == nil {
				err = json.Unmarshal(body, &probe)
			}
			if err != nil {
				return nil, fmt.Errorf("sweep: point %d: %w", pt, err)
			}
		}
		for _, pol := range policies {
			if pol != "" {
				if err := point.SetString(scn.PolicyPath(), pol); err != nil {
					return nil, err
				}
				if !crn {
					if err := point.SetInt("seed", independentSeed(probe.Seed, pol)); err != nil {
						return nil, err
					}
				}
			}
			body, err := point.Marshal()
			if err != nil {
				return nil, err
			}
			if err := be.ValidateSimulate(body); err != nil {
				return nil, fmt.Errorf("sweep: point %d policy %q: %w", pt, label(pol), err)
			}
			plan.cells = append(plan.cells, body)
		}
	}
	return plan, nil
}

// independentSeed derives the per-policy seed substituted into cell bodies
// when common random numbers are disabled: FNV-1a over "seed|policy",
// masked to 53 bits so the value survives any consumer that routes JSON
// numbers through float64. Deterministic in (seed, policy), so the sweep
// stays byte-identical across parallelism and re-runs.
func independentSeed(seed uint64, policy string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", seed, policy)
	return h.Sum64() & (1<<53 - 1)
}

func label(policy string) string {
	if policy == "" {
		return "base"
	}
	return policy
}

// ---------------------------------------------------------------------------
// Rows

// buildRow folds one grid point's cell outcomes (in policy order) into a
// comparison row. Pure float arithmetic on values that are themselves
// parallelism-invariant, so the row is too. The metric name and its
// orientation come from the scenario's Outcome, so the comparison works for
// every registered kind without the sweep layer naming any.
func buildRow(plan *Plan, point int, cells []scenario.Outcome) api.SweepRow {
	row := api.SweepRow{
		Point:    point,
		Metric:   cells[0].Metric,
		CRN:      plan.CRN,
		Policies: make([]api.SweepPolicyResult, len(cells)),
	}
	if n := len(plan.grid.Axes); n > 0 {
		vals := plan.grid.Point(point)
		row.Params = make([]api.SweepParam, n)
		for k, a := range plan.grid.Axes {
			row.Params[k] = api.SweepParam{Path: a.Path, Value: vals[k]}
		}
	}
	best := 0
	for i := 1; i < len(cells); i++ {
		better := cells[i].Mean < cells[best].Mean
		if cells[0].HigherIsBetter {
			better = cells[i].Mean > cells[best].Mean
		}
		if better {
			best = i
		}
	}
	row.Best = cells[best].Policy
	for i, c := range cells {
		regret := c.Mean - cells[best].Mean
		if cells[0].HigherIsBetter {
			regret = cells[best].Mean - c.Mean
		}
		row.Policies[i] = api.SweepPolicyResult{
			Policy:           c.Policy,
			SpecHash:         c.SpecHash,
			Mean:             c.Mean,
			CI95:             c.CI95,
			Regret:           regret,
			ReplicationsUsed: c.ReplicationsUsed,
		}
	}
	return row
}

// Execute runs every cell of plan on pool via the backend and emits each
// completed row in grid order, together with its encoded NDJSON line
// (json.Marshal output plus a trailing newline — the exact bytes the
// results endpoint streams). progress, if non-nil, observes completed-cell
// counts in arrival order (see engine.ReduceProgress); observe, if
// non-nil, receives each cell's index and the wall-clock time its
// execution took to settle — computed, joined, or failed — as it happens
// (from worker goroutines; the observer must be safe for concurrent use).
// The job layer aggregates these into per-job and store-wide compute
// time. emit errors abort the run. Cancellation arrives through ctx.
func Execute(ctx context.Context, be Backend, plan *Plan, pool *engine.Pool, progress func(done, total int), observe func(i int, d time.Duration), emit func(api.SweepRow, []byte) error) error {
	perPoint := len(plan.Policies)
	buf := make([]scenario.Outcome, 0, perPoint)
	return engine.ReduceProgress(ctx, pool, plan.Cells(),
		func(ctx context.Context, i int) (scenario.Outcome, error) {
			if observe != nil {
				begin := time.Now()
				defer func() { observe(i, time.Since(begin)) }()
			}
			resp, err := be.Simulate(ctx, plan.Cell(i))
			// A Canceled error while our own ctx is alive means the cell
			// singleflight-joined a shared computation whose initiating
			// caller disconnected — the backend unpublishes failed entries,
			// so a retry recomputes (or joins a healthy flight). Bounded:
			// inheriting a stranger's cancellation twice in a row is noise,
			// three times is a real problem.
			for retries := 0; err != nil && ctx.Err() == nil && errors.Is(err, context.Canceled) && retries < 2; retries++ {
				resp, err = be.Simulate(ctx, plan.Cell(i))
			}
			if err != nil {
				if ctx.Err() != nil {
					return scenario.Outcome{}, err // this sweep was cancelled
				}
				// A backend failure — including a server-side compute
				// timeout, which arrives as context.DeadlineExceeded from a
				// context that is not ours — is a real error. Rewrap with %v
				// (not %w) so the engine cannot mistake it for an echo of
				// sweep cancellation, and the job settles "failed" with the
				// cell named instead of a spurious "cancelled".
				return scenario.Outcome{}, fmt.Errorf("sweep: cell %d: %v", i, err)
			}
			out, err := plan.scn.Outcome(plan.Policies[i%perPoint], resp)
			if err != nil {
				return scenario.Outcome{}, fmt.Errorf("sweep: cell %d: %v", i, err)
			}
			return out, nil
		},
		func(i int, c scenario.Outcome) error {
			buf = append(buf, c)
			if len(buf) < perPoint {
				return nil
			}
			row := buildRow(plan, i/perPoint, buf)
			buf = buf[:0]
			line, err := json.Marshal(row)
			if err != nil {
				return err
			}
			return emit(row, append(line, '\n'))
		},
		progress)
}
