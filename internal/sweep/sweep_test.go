package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stochsched/internal/engine"
	"stochsched/pkg/api"
)

// fakeBackend is a deterministic stand-in for the service: the "simulation"
// result is a pure function of the cell body, so sweep-level determinism
// tests isolate the sweep machinery from the real solvers.
type fakeBackend struct {
	calls        atomic.Int64
	block        chan struct{} // when non-nil, Simulate parks until closed (or ctx done)
	simErr       error         // when non-nil, Simulate fails with it
	cancelFirstN atomic.Int64  // fail this many calls with context.Canceled first
}

type fakeCell struct {
	MG1 *struct {
		Policy string `json:"policy"`
		Spec   struct {
			Classes []struct {
				Rate float64 `json:"rate"`
			} `json:"classes"`
		} `json:"spec"`
	} `json:"mg1"`
	Seed uint64 `json:"seed"`
}

func (f *fakeBackend) ValidateSimulate(body []byte) error {
	if strings.Contains(string(body), "666") {
		return fmt.Errorf("fake: invalid spec")
	}
	var c fakeCell
	if err := json.Unmarshal(body, &c); err != nil {
		return err
	}
	if c.MG1 == nil {
		return fmt.Errorf("fake: no mg1 model")
	}
	return nil
}

func (f *fakeBackend) Simulate(ctx context.Context, body []byte) ([]byte, error) {
	f.calls.Add(1)
	if f.cancelFirstN.Add(-1) >= 0 {
		// What a cell observes when it singleflight-joined a computation
		// whose interactive leader disconnected.
		return nil, context.Canceled
	}
	if f.simErr != nil {
		return nil, f.simErr
	}
	if f.block != nil {
		select {
		case <-f.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var c fakeCell
	if err := json.Unmarshal(body, &c); err != nil {
		return nil, err
	}
	// fifo "costs" twice what cmu does, so cmu always wins and fifo's
	// regret equals the rate.
	rate := c.MG1.Spec.Classes[0].Rate
	mean := rate
	if c.MG1.Policy == "fifo" {
		mean = 2 * rate
	}
	return []byte(fmt.Sprintf(
		`{"spec_hash":"fake","mg1":{"policy":%q,"cost_rate_mean":%g,"cost_rate_ci95":0.25}}`,
		c.MG1.Policy, mean)), nil
}

const fakeBase = `{
  "kind": "mg1",
  "mg1": {"spec": {"classes": [{"rate": 0.3, "service_mean": 0.5, "hold_cost": 4}]},
          "policy": "cmu", "horizon": 100, "burnin": 10},
  "seed": 7, "replications": 5
}`

func fakeRequest(parallel int) *Request {
	return &Request{
		Base:     json.RawMessage(fakeBase),
		Grid:     api.Grid{Axes: []api.Axis{{Path: "mg1.spec.classes.0.rate", Values: []float64{0.1, 0.2, 0.3}}}},
		Policies: []string{"cmu", "fifo"},
		Parallel: parallel,
	}
}

func TestExpandCellOrder(t *testing.T) {
	be := &fakeBackend{}
	plan, err := Expand(fakeRequest(0), be, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Points != 3 || plan.Cells() != 6 {
		t.Fatalf("points %d cells %d, want 3/6", plan.Points, plan.Cells())
	}
	// Point-major, policies innermost: cell 2k is cmu, 2k+1 fifo, rates
	// ascending in pairs.
	for i := 0; i < plan.Cells(); i++ {
		var c fakeCell
		if err := json.Unmarshal(plan.Cell(i), &c); err != nil {
			t.Fatal(err)
		}
		wantRate := []float64{0.1, 0.2, 0.3}[i/2]
		wantPolicy := []string{"cmu", "fifo"}[i%2]
		if c.MG1.Spec.Classes[0].Rate != wantRate || c.MG1.Policy != wantPolicy {
			t.Errorf("cell %d: rate %v policy %q, want %v %q", i, c.MG1.Spec.Classes[0].Rate, c.MG1.Policy, wantRate, wantPolicy)
		}
	}
	// Identity excludes parallel: same sweep at different parallelism
	// shares the hash.
	p8, err := Expand(fakeRequest(8), be, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p8.Hash != plan.Hash {
		t.Error("parallel changed the sweep hash")
	}
}

func TestExpandRejects(t *testing.T) {
	be := &fakeBackend{}
	cases := []Request{
		{},                               // no base
		{Base: json.RawMessage(`{"x":`)}, // invalid JSON
		{Base: json.RawMessage(fakeBase), Policies: []string{"cmu", "cmu"}},
		{Base: json.RawMessage(fakeBase), Policies: []string{""}},
		{Base: json.RawMessage(fakeBase), Parallel: -1},
		{Base: json.RawMessage(fakeBase), Grid: api.Grid{Axes: []api.Axis{{Path: "nope.deep.path", Values: []float64{1}}}}},
		// Backend validation failure (the fake rejects rate 666).
		{Base: json.RawMessage(fakeBase), Grid: api.Grid{Axes: []api.Axis{{Path: "mg1.spec.classes.0.rate", Values: []float64{666}}}}},
	}
	for i, req := range cases {
		if _, err := Expand(&req, be, 0); err == nil {
			t.Errorf("case %d expanded", i)
		}
	}
}

// runPlan executes a request and returns the concatenated NDJSON stream.
func runPlan(t *testing.T, be Backend, req *Request, pool *engine.Pool) ([]Row, []byte) {
	t.Helper()
	plan, err := Expand(req, be, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	var stream bytes.Buffer
	err = Execute(context.Background(), be, plan, pool, nil, func(r Row, line []byte) error {
		rows = append(rows, r)
		stream.Write(line)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows, stream.Bytes()
}

func TestExecuteRowsAndRegret(t *testing.T) {
	be := &fakeBackend{}
	rows, _ := runPlan(t, be, fakeRequest(0), engine.NewPool(1))
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for i, row := range rows {
		rate := []float64{0.1, 0.2, 0.3}[i]
		if row.Point != i || row.Metric != "cost_rate" || row.Best != "cmu" {
			t.Fatalf("row %d: %+v", i, row)
		}
		if len(row.Params) != 1 || row.Params[0].Value != rate {
			t.Errorf("row %d params %+v", i, row.Params)
		}
		cmu, fifo := row.Policies[0], row.Policies[1]
		if cmu.Policy != "cmu" || cmu.Regret != 0 {
			t.Errorf("row %d cmu %+v", i, cmu)
		}
		if fifo.Policy != "fifo" || !closeTo(fifo.Regret, rate) {
			t.Errorf("row %d fifo regret %v, want %v", i, fifo.Regret, rate)
		}
	}
}

func closeTo(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

func TestExecuteByteIdenticalAcrossParallelism(t *testing.T) {
	_, s1 := runPlan(t, &fakeBackend{}, fakeRequest(0), engine.NewPool(1))
	_, s8 := runPlan(t, &fakeBackend{}, fakeRequest(0), engine.NewPool(8))
	if !bytes.Equal(s1, s8) {
		t.Fatalf("NDJSON differs across parallelism:\n%s\nvs\n%s", s1, s8)
	}
	if len(bytes.Split(bytes.TrimRight(s1, "\n"), []byte("\n"))) != 3 {
		t.Fatalf("stream is not 3 lines: %q", s1)
	}
}

func TestSinglePolicySweepUsesResponseLabel(t *testing.T) {
	req := &Request{Base: json.RawMessage(fakeBase)}
	rows, _ := runPlan(t, &fakeBackend{}, req, nil)
	if len(rows) != 1 || len(rows[0].Policies) != 1 {
		t.Fatalf("rows %+v", rows)
	}
	if rows[0].Policies[0].Policy != "cmu" || rows[0].Best != "cmu" {
		t.Errorf("label %+v", rows[0].Policies[0])
	}
}

func TestManagerLifecycle(t *testing.T) {
	be := &fakeBackend{}
	m := NewManager(be, Config{})
	job, err := m.Submit(fakeRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.CellsDone != 6 || st.RowsReady != 3 {
		t.Fatalf("final status %+v", st)
	}
	if got, ok := m.Get(job.ID); !ok || got != job {
		t.Fatal("job not retrievable")
	}
	// Rows readable after completion, in order.
	for i := 0; i < 3; i++ {
		line, more, err := job.NextRow(context.Background(), i)
		if err != nil || !more {
			t.Fatalf("row %d: more=%v err=%v", i, more, err)
		}
		var row Row
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		if row.Point != i {
			t.Errorf("row %d out of order: %+v", i, row)
		}
	}
	if _, more, _ := job.NextRow(context.Background(), 3); more {
		t.Error("stream did not end after last row")
	}
}

func TestManagerEvictsOldestFinished(t *testing.T) {
	be := &fakeBackend{}
	m := NewManager(be, Config{MaxJobs: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		job, err := m.Submit(fakeRequest(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest job not evicted")
	}
	if _, ok := m.Get(ids[2]); !ok {
		t.Error("newest job missing")
	}
	if st := m.Stats(); st.Jobs != 2 || st.Evictions != 1 {
		t.Errorf("store stats %+v", st)
	}
}

func TestManagerShedsWhenFullOfRunningJobs(t *testing.T) {
	be := &fakeBackend{block: make(chan struct{})}
	m := NewManager(be, Config{MaxJobs: 1})
	job, err := m.Submit(fakeRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(fakeRequest(1)); err != ErrStoreFull {
		t.Fatalf("second submit err = %v, want ErrStoreFull", err)
	}
	close(be.block)
	if st, err := job.Wait(context.Background()); err != nil || st.State != StateDone {
		t.Fatalf("job did not finish: %+v %v", st, err)
	}
}

func TestManagerCancelMidSweep(t *testing.T) {
	be := &fakeBackend{block: make(chan struct{})}
	m := NewManager(be, Config{})
	job, err := m.Submit(fakeRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// Cells are parked in the backend; cancel must unblock and settle them.
	if _, ok := m.Cancel(job.ID); !ok {
		t.Fatal("cancel missed the job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state %q, want cancelled", st.State)
	}
	if st.RowsReady != 0 {
		t.Errorf("cancelled job produced %d rows", st.RowsReady)
	}
	// A reader blocked past the last row is released with no more rows.
	if _, more, err := job.NextRow(ctx, st.RowsReady); more || err != nil {
		t.Fatalf("post-cancel NextRow: more=%v err=%v", more, err)
	}
	if _, ok := m.Cancel("swp-nope"); ok {
		t.Error("cancel of unknown id reported ok")
	}
}

func TestManagerRejectsOversizedSweep(t *testing.T) {
	m := NewManager(&fakeBackend{}, Config{MaxCells: 4})
	if _, err := m.Submit(fakeRequest(0)); err == nil || !strings.Contains(err.Error(), "cell budget") {
		t.Fatalf("oversized sweep err = %v", err)
	}
}

// TestExpandRejectsDeclaredSizeBeforeMaterializing: a tiny request body
// declaring a huge cartesian product must be rejected from the declared
// size alone — the backend must never see a single cell.
func TestExpandRejectsDeclaredSizeBeforeMaterializing(t *testing.T) {
	be := &fakeBackend{}
	axes := make([]api.Axis, 4)
	for i := range axes {
		vals := make([]float64, 1000)
		for j := range vals {
			vals[j] = float64(j + 1)
		}
		axes[i] = api.Axis{Path: fmt.Sprintf("a%d", i), Values: vals}
	}
	req := &Request{Base: json.RawMessage(fakeBase), Grid: api.Grid{Axes: axes}}
	if _, err := Expand(req, be, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("1e12-point grid err = %v, want ErrTooLarge", err)
	}
	if n := be.calls.Load(); n != 0 {
		t.Errorf("backend touched %d times for an over-budget grid", n)
	}
}

// TestInheritedCancellationIsRetriedNotFatal: a cell that inherits another
// caller's context.Canceled (a disconnected singleflight leader) while the
// sweep itself is alive must retry and complete — not fail the job — and
// the recovered stream must match an undisturbed run byte for byte.
func TestInheritedCancellationIsRetriedNotFatal(t *testing.T) {
	_, clean := runPlan(t, &fakeBackend{}, fakeRequest(0), engine.NewPool(2))

	be := &fakeBackend{}
	be.cancelFirstN.Store(2)
	m := NewManager(be, Config{})
	job, err := m.Submit(fakeRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	st, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %q (err %q), want done", st.State, st.Error)
	}
	var stream bytes.Buffer
	for i := 0; i < st.RowsReady; i++ {
		line, _, _ := job.NextRow(context.Background(), i)
		stream.Write(line)
	}
	if !bytes.Equal(stream.Bytes(), clean) {
		t.Error("recovered stream differs from an undisturbed run")
	}
}

// TestBackendFailureSettlesFailedNotCancelled: a backend error — including
// a compute-timeout DeadlineExceeded from a context that is not the
// sweep's — must settle the job "failed" with the cell named, never as a
// spurious "cancelled".
func TestBackendFailureSettlesFailedNotCancelled(t *testing.T) {
	for _, simErr := range []error{fmt.Errorf("solver exploded"), context.DeadlineExceeded} {
		be := &fakeBackend{simErr: simErr}
		m := NewManager(be, Config{})
		job, err := m.Submit(fakeRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		st, err := job.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateFailed {
			t.Fatalf("simErr %v: state %q, want failed", simErr, st.State)
		}
		if !strings.Contains(st.Error, "cell") {
			t.Errorf("simErr %v: error %q does not name the cell", simErr, st.Error)
		}
	}
}

// TestJobPoolClampedToManagerCapacity: a sweep's parallel knob is a Limit
// view of the manager's shared pool — it can shrink a job's footprint but
// never buys workers past the configured capacity.
func TestJobPoolClampedToManagerCapacity(t *testing.T) {
	m := NewManager(&fakeBackend{}, Config{Parallel: 2})
	if got := m.jobPool(0); got != m.pool {
		t.Error("parallel 0 should reuse the shared pool")
	}
	if got := m.jobPool(1024); got != m.pool {
		t.Errorf("parallel 1024 built a pool of size %d past the configured 2", m.jobPool(1024).Size())
	}
	if got := m.jobPool(1); got == m.pool || got.Size() != 1 {
		t.Errorf("parallel 1 pool: shared=%v size=%d", got == m.pool, got.Size())
	}
}
