package sweep

import (
	"context"
	"testing"

	"stochsched/pkg/api"
)

// TestJobTiming pins the per-job observability surface: a finished job
// reports wall-clock elapsed time and accumulated per-cell compute time,
// and the manager aggregates executed cells across jobs.
func TestJobTiming(t *testing.T) {
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
	if st.State != api.SweepDone {
		t.Fatalf("state %v", st.State)
	}
	if st.ElapsedMs <= 0 {
		t.Errorf("ElapsedMs = %v, want > 0", st.ElapsedMs)
	}
	if st.ComputeMs <= 0 {
		t.Errorf("ComputeMs = %v, want > 0", st.ComputeMs)
	}

	stats := m.Stats()
	if stats.CellsExecuted != int64(st.CellsTotal) {
		t.Errorf("CellsExecuted = %d, want %d", stats.CellsExecuted, st.CellsTotal)
	}
	if stats.ComputeNs <= 0 {
		t.Errorf("ComputeNs = %d, want > 0", stats.ComputeNs)
	}

	// Elapsed stops advancing once the job is finished.
	again := job.Snapshot()
	if again.ElapsedMs != st.ElapsedMs {
		t.Errorf("ElapsedMs moved after completion: %v -> %v", st.ElapsedMs, again.ElapsedMs)
	}
}
