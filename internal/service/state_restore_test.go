package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stochsched/internal/cluster"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

// These tests pin the durability satellite at the serving layer: a
// SnapshotState payload restored into a fresh server reproduces warm-hit
// bodies byte-for-byte, carries the eviction and sweep lifetime counters
// across, and makes finished sweeps fetchable again. Envelope-level
// corruption (CRC, truncation, versioning) is pinned in
// internal/cluster/state_test.go; here we cover the payload contract.

func statsOf(t *testing.T, s *Server) api.StatsResponse {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var resp api.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestSnapshotRestoreWarmHits: every body cached before the snapshot is a
// byte-identical warm hit after restoring into a cold server.
func TestSnapshotRestoreWarmHits(t *testing.T) {
	a := New(Config{})
	bodies := map[string][]byte{}
	for _, kind := range scenariotest.SimulateKinds() {
		body := scenariotest.SimulateBody(kind, 71)
		w := post(t, a.Handler(), "/v1/simulate", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: code %d: %s", kind, w.Code, w.Body)
		}
		bodies[body] = w.Body.Bytes()
	}

	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	for body, want := range bodies {
		w := post(t, b.Handler(), "/v1/simulate", body)
		if w.Code != http.StatusOK {
			t.Fatalf("restored server: code %d: %s", w.Code, w.Body)
		}
		if got := w.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("restored server answered X-Cache %q, want hit", got)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("restored warm hit differs from the body cached before snapshot")
		}
	}
	if n := b.eps["simulate"].misses.Load(); n != 0 {
		t.Errorf("restored server recomputed %d specs, want 0", n)
	}
}

// TestSnapshotRestorePreservesEvictionCounters: a cache that evicted
// before the snapshot reports the same eviction count after restore —
// operators comparing stats across a restart see continuity, not a reset.
func TestSnapshotRestorePreservesEvictionCounters(t *testing.T) {
	a := New(Config{CacheShards: 1, CacheEntriesPerShard: 1})
	for seed := uint64(0); seed < 4; seed++ {
		w := post(t, a.Handler(), "/v1/simulate", scenariotest.SimulateBody("mg1", 200+seed))
		if w.Code != http.StatusOK {
			t.Fatalf("seed %d: code %d", seed, w.Code)
		}
	}
	before := statsOf(t, a).Cache.Evictions
	if before == 0 {
		t.Fatal("setup failed to force evictions")
	}

	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{CacheShards: 1, CacheEntriesPerShard: 1})
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if got := statsOf(t, b).Cache.Evictions; got != before {
		t.Errorf("evictions after restore = %d, want %d", got, before)
	}
}

// TestSnapshotRestoreRespectsCapacity: restoring a large snapshot into a
// smaller cache keeps the budget — entries beyond capacity are dropped,
// not crammed in, and the drop is not billed as an eviction.
func TestSnapshotRestoreRespectsCapacity(t *testing.T) {
	a := New(Config{})
	for seed := uint64(0); seed < 6; seed++ {
		post(t, a.Handler(), "/v1/simulate", scenariotest.SimulateBody("mg1", 300+seed))
	}
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{CacheShards: 1, CacheEntriesPerShard: 2})
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	st := statsOf(t, b).Cache
	if st.Entries > 2 {
		t.Errorf("restored cache holds %d entries, capacity 2", st.Entries)
	}
	if st.Evictions != 0 {
		t.Errorf("capacity drops billed as %d evictions, want 0", st.Evictions)
	}
}

// TestSnapshotRestoreSweepJobs: finished sweeps survive a restart — the
// job is fetchable under its old ID with byte-identical NDJSON, lifetime
// counters carry over, and new submissions never collide with restored IDs.
func TestSnapshotRestoreSweepJobs(t *testing.T) {
	a := New(Config{})
	sweepBody := fmt.Sprintf(
		`{"base": %s, "grid": {"axes": [{"path":"mg1.spec.classes.0.rate","values":[0.2,0.3]}]}, "policies": ["cmu","fifo"]}`,
		scenariotest.SimulateBody("mg1", 73))
	w := post(t, a.Handler(), "/v1/sweep", sweepBody)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit code %d: %s", w.Code, w.Body)
	}
	var st api.SweepStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	waitSweep(t, a.Handler(), st.ID)
	wantRows := getBody(t, a.Handler(), "/v1/sweep/"+st.ID+"/results")
	sweepsBefore := statsOf(t, a).Sweeps

	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}

	// The restored job is fetchable: status terminal, results identical.
	sw := httptest.NewRecorder()
	b.Handler().ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/v1/sweep/"+st.ID, nil))
	if sw.Code != http.StatusOK {
		t.Fatalf("restored job status code %d: %s", sw.Code, sw.Body)
	}
	var restored api.SweepStatus
	if err := json.Unmarshal(sw.Body.Bytes(), &restored); err != nil {
		t.Fatal(err)
	}
	if restored.State != api.SweepDone || restored.CellsDone != restored.CellsTotal {
		t.Errorf("restored job %+v, want done and fully counted", restored)
	}
	gotRows := getBody(t, b.Handler(), "/v1/sweep/"+st.ID+"/results")
	if !bytes.Equal(gotRows, wantRows) {
		t.Errorf("restored sweep NDJSON differs:\n got %s\nwant %s", gotRows, wantRows)
	}

	// Lifetime counters resumed, not reset.
	sweepsAfter := statsOf(t, b).Sweeps
	if sweepsAfter.CellsExecuted != sweepsBefore.CellsExecuted {
		t.Errorf("cells_executed after restore = %d, want %d",
			sweepsAfter.CellsExecuted, sweepsBefore.CellsExecuted)
	}

	// A fresh submission on the restored server gets a new ID.
	w2 := post(t, b.Handler(), "/v1/sweep", sweepBody)
	if w2.Code != http.StatusAccepted {
		t.Fatalf("post-restore submit code %d: %s", w2.Code, w2.Body)
	}
	var st2 api.SweepStatus
	if err := json.Unmarshal(w2.Body.Bytes(), &st2); err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Errorf("post-restore submission reused restored job ID %s", st.ID)
	}
	waitSweep(t, b.Handler(), st2.ID)
}

// TestRestoreStateRejectsGarbage: a payload that is not a state snapshot
// errors instead of partially applying (the daemon then boots cold).
func TestRestoreStateRejectsGarbage(t *testing.T) {
	s := New(Config{})
	if err := s.RestoreState([]byte("not json")); err == nil {
		t.Error("garbage payload restored without error")
	}
	if err := s.RestoreState([]byte(`{"cache": {"entries": "wrong-type"}}`)); err == nil {
		t.Error("mistyped payload restored without error")
	}
}

// restoreSweepBody is a one-cell mg1 sweep: a small snapshot keeps the
// restore fuzzer's minimization short.
var restoreSweepBody = fmt.Sprintf(`{"base": %s}`, scenariotest.SimulateBody("mg1", 83))

// snapshotWithSweep returns a real SnapshotState payload: a finished sweep
// job and the cache entry its cell left.
func snapshotWithSweep(tb testing.TB) []byte {
	tb.Helper()
	s := New(Config{})
	var st api.SweepStatus
	if err := json.Unmarshal(post(tb, s.Handler(), "/v1/sweep", restoreSweepBody).Body.Bytes(), &st); err != nil {
		tb.Fatal(err)
	}
	waitSweep(tb, s.Handler(), st.ID)
	snap, err := s.SnapshotState()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestRestoreStateRejectsUnsettledJob: a snapshot job that is not done,
// failed or cancelled rejects the whole payload. The daemon never writes
// one, but a hand-edited or foreign state file can. Installed, such a job
// would report running forever: it cannot be cancelled or evicted, and it
// fills a one-job store.
func TestRestoreStateRejectsUnsettledJob(t *testing.T) {
	var st serverState
	if err := json.Unmarshal(snapshotWithSweep(t), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Cache.Entries) == 0 || len(st.Sweeps.Jobs) != 1 {
		t.Fatalf("snapshot holds %d cache entries and %d jobs, want some and 1", len(st.Cache.Entries), len(st.Sweeps.Jobs))
	}
	for _, state := range []api.SweepState{api.SweepRunning, "", "paused"} {
		st.Sweeps.Jobs[0].State = state
		bad, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{SweepMaxJobs: 1})
		if err := s.RestoreState(bad); err == nil {
			t.Errorf("state %q: payload restored without error", state)
		}
		if got := statsOf(t, s); got.Cache.Entries != 0 || got.Sweeps.Jobs != 0 {
			t.Errorf("state %q: rejected payload installed %d cache entries and %d jobs", state, got.Cache.Entries, got.Sweeps.Jobs)
		}
		w := post(t, s.Handler(), "/v1/sweep", restoreSweepBody)
		if w.Code != http.StatusAccepted {
			t.Fatalf("state %q: submit after the rejected restore: code %d: %s", state, w.Code, w.Body)
		}
		var sub api.SweepStatus
		if err := json.Unmarshal(w.Body.Bytes(), &sub); err != nil {
			t.Fatal(err)
		}
		waitSweep(t, s.Handler(), sub.ID)
	}
}

// FuzzRestoreState: whatever the payload, RestoreState never panics,
// installs all of it or none of it, and never installs a job that is
// still running.
func FuzzRestoreState(f *testing.F) {
	snap := snapshotWithSweep(f)
	f.Add(snap)
	f.Add(bytes.Replace(snap, []byte(`"state":"done"`), []byte(`"state":"running"`), 1))
	f.Add([]byte(`{"cache":{"entries":[{"key":"k","body":"e30="}],"evictions":3},"sweeps":{"jobs":[{"id":"swp-9-x"}]}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(Config{SweepMaxJobs: 1})
		err := s.RestoreState(data)
		cache, sweeps := s.cache.Stats(), s.sweeps.Stats()
		if err != nil && (cache.Entries != 0 || cache.Evictions != 0 || sweeps != (api.SweepStoreStats{})) {
			t.Fatalf("rejected payload (%v) left cache %+v and sweeps %+v", err, cache, sweeps)
		}
		if err == nil && sweeps.Running != 0 {
			t.Fatalf("accepted payload installed %d running jobs", sweeps.Running)
		}
	})
}

// TestReadyzGatedOnRestore: while a restore is in flight /readyz answers
// 503 unavailable (so peers and load balancers hold traffic) and /healthz
// stays 200 (the process is alive); readiness returns once restore ends.
func TestReadyzGatedOnRestore(t *testing.T) {
	s := New(Config{})
	s.SetRestoring(true)

	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz during restore = %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), api.ErrCodeUnavailable) {
		t.Errorf("/readyz 503 body %s, want code %s", w.Body, api.ErrCodeUnavailable)
	}
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("/healthz during restore = %d, want 200", w.Code)
	}

	s.SetRestoring(false)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusOK {
		t.Errorf("/readyz after restore = %d, want 200", w.Code)
	}
}

// TestStoreRoundTripThroughService: the full daemon path — snapshot
// through the versioned cluster.Store envelope to disk, load, restore —
// reproduces warm hits. This is the integration seam main() wires.
func TestStoreRoundTripThroughService(t *testing.T) {
	store, err := cluster.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{})
	body := scenariotest.SimulateBody("mg1", 79)
	want := post(t, a.Handler(), "/v1/simulate", body).Body.Bytes()
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(snap); err != nil {
		t.Fatal(err)
	}

	loaded, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	if err := b.RestoreState(loaded); err != nil {
		t.Fatal(err)
	}
	w := post(t, b.Handler(), "/v1/simulate", body)
	if w.Header().Get("X-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), want) {
		t.Error("disk round-trip did not reproduce the warm hit")
	}
}

// getBody GETs path and returns the response body, failing on non-200.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: code %d: %s", path, w.Code, w.Body)
	}
	return w.Body.Bytes()
}
