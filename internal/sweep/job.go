package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stochsched/internal/engine"
	"stochsched/pkg/api"
)

// ErrStoreFull is returned by Submit when the job store is at capacity and
// every stored job is still running (nothing is evictable). The HTTP layer
// maps it to 429.
var ErrStoreFull = errors.New("sweep: job store full of running jobs")

// ErrTooLarge is returned by Expand (and therefore Submit) when a sweep
// declares more cells than allowed. The HTTP layer maps it to 400.
var ErrTooLarge = errors.New("sweep: grid expands beyond the cell budget")

// terminal reports whether state s is settled: done, failed or cancelled.
func terminal(s api.SweepState) bool {
	return s == api.SweepDone || s == api.SweepFailed || s == api.SweepCancelled
}

// Config tunes a Manager. Zero values select the documented defaults.
type Config struct {
	// MaxJobs bounds the job store. When a submission would exceed it the
	// oldest finished job is evicted; if every job is running the
	// submission is rejected with ErrStoreFull. Default 32.
	MaxJobs int
	// MaxCells bounds points × policies per sweep. Default 4096.
	MaxCells int
	// Parallel is the default worker-pool size for jobs whose request does
	// not pin one. Default: GOMAXPROCS (engine.NewPool(0)).
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.MaxJobs == 0 {
		c.MaxJobs = 32
	}
	if c.MaxCells == 0 {
		c.MaxCells = 4096
	}
	return c
}

// Manager owns the asynchronous sweep jobs: submission, lookup, streaming,
// cancellation, and bounded-store eviction. Safe for concurrent use.
type Manager struct {
	cfg  Config
	be   Backend
	pool *engine.Pool // shared across jobs; per-job parallelism is a Limit view

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // insertion order, for oldest-first eviction
	seq   int64

	evictions atomic.Int64
	// cellsExecuted and computeNs accumulate across the store's lifetime
	// (evicted jobs included): settled sweep cells and the wall-clock time
	// spent executing them — the store-wide view /v1/stats and /metrics
	// report, where per-job numbers die with eviction.
	cellsExecuted atomic.Int64
	computeNs     atomic.Int64
}

// NewManager returns a manager executing cells through be.
func NewManager(be Backend, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{cfg: cfg, be: be, pool: engine.NewPool(cfg.Parallel), jobs: make(map[string]*Job)}
}

// jobPool resolves the pool one job's cells fan out over: a request's
// parallel knob is a capped view of the manager's shared pool, so
// concurrent sweeps draw from — never add to — the configured capacity
// (the same clamp the serving layer applies to /v1/simulate).
func (m *Manager) jobPool(parallel int) *engine.Pool {
	return m.pool.Limit(parallel)
}

// Submit expands and validates req, stores a new running job, and starts
// executing it. The call returns as soon as the job is scheduled; rows
// stream in through the job's reader methods.
func (m *Manager) Submit(req *api.SweepRequest) (*Job, error) {
	plan, err := Expand(req, m.be, m.cfg.MaxCells)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		Hash:     plan.Hash,
		Points:   plan.Points,
		Policies: plan.Policies,
		Cells:    plan.Cells(),
		state:    api.SweepRunning,
		updated:  make(chan struct{}),
		cancel:   cancel,
		started:  time.Now(),
	}

	m.mu.Lock()
	if len(m.jobs) >= m.cfg.MaxJobs && !m.evictOldestTerminalLocked() {
		m.mu.Unlock()
		cancel()
		return nil, ErrStoreFull
	}
	m.seq++
	job.ID = fmt.Sprintf("swp-%d-%s", m.seq, plan.Hash[:8])
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.mu.Unlock()

	go m.run(ctx, job, plan, m.jobPool(req.Parallel))
	return job, nil
}

// run executes the plan and settles the job's terminal state. Cell
// timings feed both the job (for its status) and the manager's
// store-lifetime counters.
func (m *Manager) run(ctx context.Context, job *Job, plan *Plan, pool *engine.Pool) {
	defer job.cancel() // release the context once settled
	err := Execute(ctx, m.be, plan, pool, job.observeProgress,
		func(_ int, d time.Duration) {
			job.observeCell(d)
			m.cellsExecuted.Add(1)
			m.computeNs.Add(d.Nanoseconds())
		},
		func(_ api.SweepRow, line []byte) error { return job.appendRow(line) })
	job.finish(err)
}

// evictOldestTerminalLocked drops the oldest finished job, reporting
// whether one existed. Running jobs are never evicted.
func (m *Manager) evictOldestTerminalLocked() bool {
	for i, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		done := terminal(j.state)
		j.mu.Unlock()
		if done {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.evictions.Add(1)
			return true
		}
	}
	return false
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel requests cancellation of the job with the given id. Finished jobs
// are unaffected; the job settles to api.SweepCancelled once in-flight cells
// drain.
func (m *Manager) Cancel(id string) (*Job, bool) {
	j, ok := m.Get(id)
	if ok {
		j.cancel()
	}
	return j, ok
}

// Stats returns current store counters for /v1/stats.
func (m *Manager) Stats() api.SweepStoreStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := api.SweepStoreStats{
		Jobs:          len(m.jobs),
		Evictions:     m.evictions.Load(),
		CellsExecuted: m.cellsExecuted.Load(),
		ComputeNs:     m.computeNs.Load(),
	}
	for _, j := range m.jobs {
		j.mu.Lock()
		if !terminal(j.state) {
			st.Running++
		}
		j.mu.Unlock()
	}
	return st
}

// ---------------------------------------------------------------------------
// Snapshot / restore (the durability layer — see internal/cluster.Store)

// JobSnapshot is one terminal job's durable form: identity, outcome, and
// the encoded NDJSON rows exactly as streamed, so a restored job's results
// endpoint serves byte-identical output across a restart.
type JobSnapshot struct {
	ID        string         `json:"id"`
	Hash      string         `json:"hash"`
	Points    int            `json:"points"`
	Policies  []string       `json:"policies"`
	Cells     int            `json:"cells"`
	State     api.SweepState `json:"state"`
	Error     string         `json:"error,omitempty"`
	CellsDone int            `json:"cells_done"`
	Rows      [][]byte       `json:"rows"`
	StartedNs int64          `json:"started_unix_ns"`
	EndedNs   int64          `json:"finished_unix_ns"`
	CellNs    int64          `json:"cell_ns"`
}

// StoreSnapshot is the job store's durable form: every terminal job in
// insertion order plus the store-lifetime counters, so /v1/stats gauges
// survive restarts. Running jobs are excluded — their computation belongs
// to the live process and cannot be resumed from rows alone.
type StoreSnapshot struct {
	Jobs          []JobSnapshot `json:"jobs"`
	Evictions     int64         `json:"evictions"`
	CellsExecuted int64         `json:"cells_executed"`
	ComputeNs     int64         `json:"compute_ns"`
}

// SnapshotStore captures every terminal job and the lifetime counters.
func (m *Manager) SnapshotStore() StoreSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := StoreSnapshot{
		Evictions:     m.evictions.Load(),
		CellsExecuted: m.cellsExecuted.Load(),
		ComputeNs:     m.computeNs.Load(),
	}
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		if terminal(j.state) {
			snap.Jobs = append(snap.Jobs, JobSnapshot{
				ID:        j.ID,
				Hash:      j.Hash,
				Points:    j.Points,
				Policies:  j.Policies,
				Cells:     j.Cells,
				State:     j.state,
				Error:     j.errMsg,
				CellsDone: j.cellsDone,
				Rows:      j.rows,
				StartedNs: j.started.UnixNano(),
				EndedNs:   j.finished.UnixNano(),
				CellNs:    j.cellNs,
			})
		}
		j.mu.Unlock()
	}
	return snap
}

// RestoreStore installs a snapshot's jobs into the store, oldest first,
// skipping IDs already present and respecting MaxJobs (excess newest jobs
// are dropped — the same age preference as eviction). The sequence counter
// advances past every restored ID, so new submissions can never collide
// with a restored job's ID, and the lifetime counters resume where the
// previous process left off. A snapshot holding a job that is not
// terminal is rejected whole, before anything is installed: no process
// would ever settle it.
func (m *Manager) RestoreStore(snap StoreSnapshot) error {
	for _, js := range snap.Jobs {
		if !terminal(js.State) {
			return fmt.Errorf("sweep: snapshot job %q is in state %q, not done, failed or cancelled", js.ID, js.State)
		}
	}
	m.evictions.Add(snap.Evictions)
	m.cellsExecuted.Add(snap.CellsExecuted)
	m.computeNs.Add(snap.ComputeNs)
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, js := range snap.Jobs {
		var seq int64
		if _, err := fmt.Sscanf(js.ID, "swp-%d-", &seq); err == nil && seq > m.seq {
			m.seq = seq
		}
		if _, exists := m.jobs[js.ID]; exists || len(m.jobs) >= m.cfg.MaxJobs {
			continue
		}
		job := &Job{
			ID:        js.ID,
			Hash:      js.Hash,
			Points:    js.Points,
			Policies:  js.Policies,
			Cells:     js.Cells,
			cancel:    func() {}, // terminal: nothing to cancel
			updated:   make(chan struct{}),
			rows:      js.Rows,
			cellsDone: js.CellsDone,
			state:     js.State,
			errMsg:    js.Error,
			started:   time.Unix(0, js.StartedNs),
			finished:  time.Unix(0, js.EndedNs),
			cellNs:    js.CellNs,
		}
		m.jobs[js.ID] = job
		m.order = append(m.order, js.ID)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Job

// Job is one asynchronous sweep. All mutable state is guarded by mu;
// readers block on updated, which is closed-and-replaced on every change
// (broadcast).
type Job struct {
	ID       string
	Hash     string
	Points   int
	Policies []string
	Cells    int

	cancel context.CancelFunc

	mu        sync.Mutex
	updated   chan struct{}
	rows      [][]byte // encoded NDJSON lines, grid order
	cellsDone int
	state     api.SweepState
	errMsg    string
	// started/finished bound the job's wall time (finished zero while
	// running); cellNs accumulates the per-cell execution time — compute
	// time exceeds wall time when cells run in parallel, and falls below
	// it when cells are cache hits.
	started  time.Time
	finished time.Time
	cellNs   int64
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() api.SweepStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	policies := make([]string, len(j.Policies))
	for i, p := range j.Policies {
		policies[i] = label(p)
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return api.SweepStatus{
		ID:         j.ID,
		SweepHash:  j.Hash,
		State:      j.state,
		Points:     j.Points,
		Policies:   policies,
		CellsTotal: j.Cells,
		CellsDone:  j.cellsDone,
		RowsReady:  len(j.rows),
		Error:      j.errMsg,
		ElapsedMs:  float64(end.Sub(j.started).Nanoseconds()) / 1e6,
		ComputeMs:  float64(j.cellNs) / 1e6,
	}
}

// broadcastLocked wakes every blocked reader. Callers hold mu.
func (j *Job) broadcastLocked() {
	close(j.updated)
	j.updated = make(chan struct{})
}

func (j *Job) observeProgress(done, _ int) {
	j.mu.Lock()
	j.cellsDone = done
	j.broadcastLocked()
	j.mu.Unlock()
}

// observeCell accumulates one settled cell's execution time.
func (j *Job) observeCell(d time.Duration) {
	j.mu.Lock()
	j.cellNs += d.Nanoseconds()
	j.mu.Unlock()
}

func (j *Job) appendRow(line []byte) error {
	j.mu.Lock()
	j.rows = append(j.rows, line)
	j.broadcastLocked()
	j.mu.Unlock()
	return nil
}

// finish settles the terminal state from Execute's return value.
func (j *Job) finish(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = api.SweepDone
	case errors.Is(err, context.Canceled):
		j.state = api.SweepCancelled
		j.errMsg = "cancelled"
	default:
		j.state = api.SweepFailed
		j.errMsg = err.Error()
	}
	j.broadcastLocked()
}

// NextRow blocks until row i is available and returns its NDJSON line. ok
// is false when the job reached a terminal state without producing row i —
// the stream is over (State in the returned status says why).
func (j *Job) NextRow(ctx context.Context, i int) (line []byte, ok bool, err error) {
	for {
		j.mu.Lock()
		if i < len(j.rows) {
			line := j.rows[i]
			j.mu.Unlock()
			return line, true, nil
		}
		if terminal(j.state) {
			j.mu.Unlock()
			return nil, false, nil
		}
		ch := j.updated
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-ch:
		}
	}
}

// Wait blocks until the job reaches a terminal state (or ctx is done) and
// returns its final status.
func (j *Job) Wait(ctx context.Context) (api.SweepStatus, error) {
	for {
		j.mu.Lock()
		if terminal(j.state) {
			j.mu.Unlock()
			return j.Snapshot(), nil
		}
		ch := j.updated
		j.mu.Unlock()
		select {
		case <-ctx.Done():
			return j.Snapshot(), ctx.Err()
		case <-ch:
		}
	}
}
