package stochsched

// One benchmark per experiment: each regenerates (in quick mode) the table
// that reproduces the corresponding surveyed result, so `go test -bench=.`
// exercises the entire reproduction suite and reports its cost.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stochsched/internal/batch"
	"stochsched/internal/cluster"
	"stochsched/internal/engine"
	"stochsched/internal/experiments"
	"stochsched/internal/rng"
	"stochsched/internal/scenario"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/internal/service"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(experiments.Config{Seed: uint64(i) + 1, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// BenchmarkEngineReplications measures the engine's replication fan-out on
// a representative Monte Carlo workload (a 40-job WSEPT list simulation,
// 2000 replications per op) at fixed parallelism levels. `make bench`
// renders its output as BENCH_engine.json for the performance trajectory.
func BenchmarkEngineReplications(b *testing.B) {
	in := batch.RandomInstance(40, 4, rng.New(5))
	o := batch.WSEPT(in.Jobs)
	levels := []int{1, 4}
	if max := runtime.GOMAXPROCS(0); max != 1 && max != 4 {
		levels = append(levels, max)
	}
	for _, par := range levels {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			pool := engine.NewPool(par)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var est batch.ParallelEstimate
				if err := engine.ReplicateReduce(context.Background(), pool, 2000, rng.New(uint64(i)+1), func(s *rng.Stream) (batch.ParallelResult, error) {
					return batch.SimulateList(in, o, s), nil
				}, est.Add); err != nil {
					b.Fatal(err)
				}
				if est.Flowtime.N() != 2000 {
					b.Fatalf("saw %d replications, want 2000", est.Flowtime.N())
				}
			}
		})
	}
}

// serviceGittinsBody builds a /v1/index bandit request body for a
// deterministic n-state project; delta perturbs the first reward so each
// distinct value yields a distinct spec hash (a guaranteed cache miss).
func serviceGittinsBody(n int, delta float64) string {
	s := rng.New(42)
	var sb strings.Builder
	sb.WriteString(`{"kind":"bandit","bandit":{"beta":0.9,"transitions":[`)
	for i := 0; i < n; i++ {
		row := make([]float64, n)
		sum := 0.0
		for j := range row {
			row[j] = s.Float64Open()
			sum += row[j]
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for j := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%.12g", row[j]/sum)
		}
		sb.WriteByte(']')
	}
	sb.WriteString(`],"rewards":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		r := s.Float64()
		if i == 0 {
			r += delta
		}
		fmt.Fprintf(&sb, "%.12g", r)
	}
	sb.WriteString(`]}}`)
	return sb.String()
}

// BenchmarkServiceIndexCache measures the policy service's Gittins index
// on a 30-state project along its two paths: "cold" defeats the cache with
// a fresh spec every iteration (full index computation), "warm" repeats one
// spec (sharded-cache lookup serving memoized bytes). No baseline gates
// it; run it with `go test -run '^$' -bench BenchmarkServiceIndexCache .`.
func BenchmarkServiceIndexCache(b *testing.B) {
	run := func(b *testing.B, body func(i int) string) {
		h := service.New(service.Config{}).Handler()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/index", strings.NewReader(body(i)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("code %d: %s", w.Code, w.Body)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, func(i int) string { return serviceGittinsBody(30, float64(i+1)) })
	})
	b.Run("warm", func(b *testing.B) {
		warm := serviceGittinsBody(30, 0)
		run(b, func(int) string { return warm })
	})
}

// BenchmarkSimulate measures the /v1/simulate path through the scenario
// registry for every registered kind, cold (fresh seed every iteration, so
// every request computes) and warm (one cached body served repeatedly).
// The bodies are the canonical per-kind requests from scenariotest — the
// same ones the conformance suites pin — so a newly registered kind joins
// the benchmark automatically. `make bench-simulate` renders the
// measurements as BENCH_simulate.json, tracking the simulate path like the
// engine and cache benches.
func BenchmarkSimulate(b *testing.B) {
	run := func(b *testing.B, h http.Handler, body func(i int) string) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body(i)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("code %d: %s", w.Code, w.Body)
			}
		}
	}
	for _, kind := range scenario.Kinds() {
		if scenariotest.SimulateBody(kind, 1) == "" {
			b.Fatalf("kind %q has no canonical body in scenariotest", kind)
		}
		kind := kind
		b.Run(kind+"/cold", func(b *testing.B) {
			h := service.New(service.Config{}).Handler()
			b.ResetTimer()
			run(b, h, func(i int) string { return scenariotest.SimulateBody(kind, uint64(i)+1) })
		})
		b.Run(kind+"/warm", func(b *testing.B) {
			h := service.New(service.Config{}).Handler()
			warm := scenariotest.SimulateBody(kind, 1)
			// One un-timed request fills the cache; the measured loop is
			// all hits.
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(warm))
			h.ServeHTTP(httptest.NewRecorder(), req)
			b.ResetTimer()
			run(b, h, func(int) string { return warm })
		})
	}
}

// BenchmarkBatchVsSingle measures the wire amortization POST /v1/batch
// buys: the same N warm index calls issued as N single HTTP round trips
// through pkg/client versus one /v1/batch round trip carrying all N. The
// specs are small (the realistic high-traffic shape: many cheap index
// queries) and pre-warmed, so both variants measure per-call transport and
// cache-lookup overhead — exactly the cost batching exists to amortize.
// No baseline gates it; run it with
// `go test -run '^$' -bench BenchmarkBatchVsSingle .`.
func BenchmarkBatchVsSingle(b *testing.B) {
	const n = 16
	srv := httptest.NewServer(service.New(service.Config{}).Handler())
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	bodies := make([][]byte, n)
	items := make([]api.BatchItem, n)
	for i := range bodies {
		body := serviceGittinsBody(3, float64(i+1))
		bodies[i] = []byte(body)
		items[i] = api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(body)}
		// Pre-warm: both variants below measure transport, not solving.
		if _, err := c.IndexRaw(ctx, bodies[i]); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, body := range bodies {
				if _, err := c.IndexRaw(ctx, body); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		req := &api.BatchRequest{Items: items}
		for i := 0; i < b.N; i++ {
			resp, err := c.Batch(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Items) != n || resp.Items[0].Status != 200 {
				b.Fatalf("batch answered %d items, first status %d", len(resp.Items), resp.Items[0].Status)
			}
		}
	})
}

// adaptiveBatchBody builds a 40-job batch scheduling request whose weighted
// flowtime averages over enough jobs that its coefficient of variation is
// small — the workload shape where sequential stopping pays. tail supplies
// the budget member (`"replications":N` or a `"precision":{...}` block).
func adaptiveBatchBody(policy string, seed uint64, tail string) string {
	s := rng.New(99)
	var sb strings.Builder
	sb.WriteString(`{"kind":"batch","batch":{"spec":{"jobs":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		w := 1 + int(s.Float64()*4)
		switch i % 4 {
		case 0:
			fmt.Fprintf(&sb, `{"weight":%d,"dist":{"kind":"exp","mean":%.3f}}`, w, 0.5+s.Float64())
		case 1:
			fmt.Fprintf(&sb, `{"weight":%d,"dist":{"kind":"det","value":%.3f}}`, w, 0.5+s.Float64())
		case 2:
			lo := 0.2 + s.Float64()
			fmt.Fprintf(&sb, `{"weight":%d,"dist":{"kind":"uniform","lo":%.3f,"hi":%.3f}}`, w, lo, lo+1)
		case 3:
			fmt.Fprintf(&sb, `{"weight":%d,"dist":{"kind":"erlang","k":3,"rate":%.3f}}`, w, 1+s.Float64())
		}
	}
	fmt.Fprintf(&sb, `]},"policy":%q},"seed":%d,%s}`, policy, seed, tail)
	return sb.String()
}

func adaptiveMDPBody(seed uint64, tail string) string {
	return fmt.Sprintf(`{"kind":"mdp","mdp":{"spec":{"actions":[
		{"transitions":[[0.9,0.1],[0.6,0.4]],"rewards":[1,0]},
		{"transitions":[[0.2,0.8],[0.3,0.7]],"rewards":[2,-1]}
	]},"policy":"optimal","horizon":400,"burnin":50},"seed":%d,%s}`, seed, tail)
}

// BenchmarkAdaptivePrecision measures what target-precision mode buys on
// /v1/simulate: for each kind, "fixed" spends the conservative 4096-
// replication budget a user without a stopping rule would provision for
// ±1% CI95, while "adaptive" requests precision {target_ci95: 0.01} with
// the same budget as ceiling and stops at the first round whose CI meets
// the target. The adaptive variants assert the acceptance bar inline —
// replications_used at most a fifth of the fixed budget — and report the
// observed spend as reps/op, so the fixed/adaptive ns/op ratio in
// BENCH_precision.json is the replication saving. The mg1-diff pair
// measures the variance-reduction half: the implied replications to
// resolve the cµ−FCFS cost-rate difference to ±1% CI95 (reps_to_1pct)
// with common random numbers versus independently seeded policies.
// `make bench-precision` renders the output as BENCH_precision.json.
func BenchmarkAdaptivePrecision(b *testing.B) {
	const budget = 4096
	post := func(b *testing.B, h http.Handler, body string) []byte {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("code %d: %s", w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	for _, k := range []struct {
		name string
		body func(seed uint64, tail string) string
	}{
		{"batch", func(seed uint64, tail string) string { return adaptiveBatchBody("wsept", seed, tail) }},
		{"mdp", adaptiveMDPBody},
	} {
		k := k
		b.Run(k.name+"/fixed", func(b *testing.B) {
			h := service.New(service.Config{}).Handler()
			tail := fmt.Sprintf(`"replications":%d`, budget)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, h, k.body(uint64(i)+1, tail))
			}
		})
		b.Run(k.name+"/adaptive", func(b *testing.B) {
			h := service.New(service.Config{}).Handler()
			tail := fmt.Sprintf(`"precision":{"target_ci95":0.01,"max_replications":%d}`, budget)
			var used int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp := post(b, h, k.body(uint64(i)+1, tail))
				var env struct {
					ReplicationsUsed int64 `json:"replications_used"`
				}
				if err := json.Unmarshal(resp, &env); err != nil {
					b.Fatal(err)
				}
				if env.ReplicationsUsed < 1 || env.ReplicationsUsed > budget {
					b.Fatalf("replications_used %d outside [1, %d]", env.ReplicationsUsed, budget)
				}
				if env.ReplicationsUsed*5 > budget {
					b.Fatalf("seed %d: adaptive spent %d of %d replications to ±1%% CI95; want a ≥5x saving",
						i+1, env.ReplicationsUsed, budget)
				}
				used += env.ReplicationsUsed
			}
			b.ReportMetric(float64(used)/float64(b.N), "reps/op")
		})
	}
	for _, crn := range []bool{true, false} {
		crn := crn
		b.Run(fmt.Sprintf("mg1-diff/crn=%v", crn), func(b *testing.B) {
			h := service.New(service.Config{}).Handler()
			const reps = 16
			mean := func(policy string, seed uint64) float64 {
				body := fmt.Sprintf(`{"kind":"mg1","mg1":{"spec":{"classes":[
					{"rate":0.3,"service_mean":0.5,"hold_cost":4},
					{"rate":0.2,"service_mean":1,"hold_cost":1}
				]},"policy":%q,"horizon":200,"burnin":20},"seed":%d,"replications":%d}`, policy, seed, reps)
				var env struct {
					MG1 struct {
						Mean float64 `json:"cost_rate_mean"`
					} `json:"mg1"`
				}
				if err := json.Unmarshal(post(b, h, body), &env); err != nil {
					b.Fatal(err)
				}
				return env.MG1.Mean
			}
			diffs := make([]float64, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cmu := uint64(i) + 1
				fifo := cmu
				if !crn {
					fifo = cmu + 1<<20
				}
				diffs = append(diffs, mean("cmu", cmu)-mean("fifo", fifo))
			}
			b.StopTimer()
			var sum, sum2 float64
			for _, d := range diffs {
				sum += d
				sum2 += d * d
			}
			m := sum / float64(len(diffs))
			v := sum2/float64(len(diffs)) - m*m
			if len(diffs) >= 16 && m != 0 && v > 0 {
				// Each trial is a 16-replication mean, so the per-pair
				// standard deviation is sqrt(16)·sd(trials); the implied
				// spend to pin the difference to ±1% CI95 follows from
				// n = (1.96·sd_pair / (0.01·|mean|))².
				sd := math.Sqrt(v * reps)
				n := 1.96 * sd / (0.01 * math.Abs(m))
				b.ReportMetric(n*n, "reps_to_1pct")
			}
		})
	}
}

// benchPeerRegistry wires an in-process ring for BenchmarkCluster: each
// peer's "transport" resolves the target server's handler from a shared
// map at call time, so the cyclic peer references cost one mutex hit — the
// benchmark measures the forwarding machinery, not loopback TCP.
type benchPeerRegistry struct {
	mu sync.Mutex
	m  map[string]http.Handler
}

func (r *benchPeerRegistry) dial(peer string) client.Doer {
	return benchPeerDoer{r: r, peer: peer}
}

type benchPeerDoer struct {
	r    *benchPeerRegistry
	peer string
}

func (d benchPeerDoer) Do(req *http.Request) (*http.Response, error) {
	d.r.mu.Lock()
	h := d.r.m[d.peer]
	d.r.mu.Unlock()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Result(), nil
}

func benchRing(b *testing.B, n int) []*service.Server {
	b.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://bench-node%d", i)
	}
	reg := &benchPeerRegistry{m: make(map[string]http.Handler, n)}
	servers := make([]*service.Server, n)
	for i, addr := range addrs {
		cl, err := cluster.New(cluster.Config{Self: addr, Peers: addrs, Dial: reg.dial})
		if err != nil {
			b.Fatal(err)
		}
		servers[i] = service.New(service.Config{Cluster: cl})
		reg.mu.Lock()
		reg.m[addr] = servers[i].Handler()
		reg.mu.Unlock()
	}
	return servers
}

// BenchmarkCluster measures what multi-node routing costs on top of the
// single-node service. warm/local is a cache hit on the owning node (the
// single-node fast path, unchanged by clustering); warm/forward is the
// same hit reached through a non-owner, so the delta is the full relay:
// routing, the in-process hop, and the body copy. The sweep pair runs a
// fresh 4-point sweep per op on one node versus a 3-node ring where each
// cell forwards to its ring owner — the per-cell fan-out overhead.
// `make bench-cluster` renders the output as BENCH_cluster.json, and
// `make bench-check` gates it against the checked-in baseline.
func BenchmarkCluster(b *testing.B) {
	post := func(b *testing.B, h http.Handler, path, body string) *httptest.ResponseRecorder {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("code %d: %s", w.Code, w.Body)
		}
		return w
	}

	servers := benchRing(b, 3)
	body := scenariotest.SimulateBody("mg1", 11)
	// Locate the owner by its X-Cache header: the owner answers miss/hit,
	// everyone else forwards.
	local, forward := -1, -1
	for i, s := range servers {
		if post(b, s.Handler(), "/v1/simulate", body).Header().Get("X-Cache") == "forward" {
			forward = i
		} else {
			local = i
		}
	}
	if local < 0 || forward < 0 {
		b.Fatal("could not locate an owner and a forwarder on the ring")
	}

	b.Run("warm/local", func(b *testing.B) {
		h := servers[local].Handler()
		for i := 0; i < b.N; i++ {
			post(b, h, "/v1/simulate", body)
		}
	})
	b.Run("warm/forward", func(b *testing.B) {
		h := servers[forward].Handler()
		for i := 0; i < b.N; i++ {
			post(b, h, "/v1/simulate", body)
		}
	})

	sweepFor := func(seed int) []byte {
		return []byte(fmt.Sprintf(
			`{"base": %s, "grid": {"axes": [{"path":"mg1.spec.classes.0.rate","values":[0.15,0.2,0.25,0.3]}]}}`,
			scenariotest.SimulateBody("mg1", uint64(1000+seed))))
	}
	runSweep := func(b *testing.B, c *client.Client, seed int) {
		b.Helper()
		ctx := context.Background()
		st, err := c.SweepSubmitRaw(ctx, sweepFor(seed))
		if err != nil {
			b.Fatal(err)
		}
		final, err := c.SweepWait(ctx, st.ID, 100*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		if final.State != api.SweepDone {
			b.Fatalf("sweep settled %q: %s", final.State, final.Error)
		}
	}
	b.Run("sweep/1node", func(b *testing.B) {
		c := client.NewInProcess(service.New(service.Config{}).Handler())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSweep(b, c, i)
		}
	})
	b.Run("sweep/3node", func(b *testing.B) {
		c := client.NewInProcess(benchRing(b, 3)[0].Handler())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runSweep(b, c, i)
		}
	})
}

func BenchmarkE01_WSEPTSingleMachine(b *testing.B)     { benchExperiment(b, "E01") }
func BenchmarkE02_SevcikPreemptive(b *testing.B)       { benchExperiment(b, "E02") }
func BenchmarkE03_SEPTParallelFlowtime(b *testing.B)   { benchExperiment(b, "E03") }
func BenchmarkE04_LEPTParallelMakespan(b *testing.B)   { benchExperiment(b, "E04") }
func BenchmarkE05_WeibullHazardSweep(b *testing.B)     { benchExperiment(b, "E05") }
func BenchmarkE06_TwoPointCounterexample(b *testing.B) { benchExperiment(b, "E06") }
func BenchmarkE07_WSEPTTurnpike(b *testing.B)          { benchExperiment(b, "E07") }
func BenchmarkE08_HLFInTree(b *testing.B)              { benchExperiment(b, "E08") }
func BenchmarkE09_GittinsOptimality(b *testing.B)      { benchExperiment(b, "E09") }
func BenchmarkE10_SwitchingCosts(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11_WhittleLPBound(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12_WhittleAsymptotic(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13_PrimalDualHeuristic(b *testing.B)    { benchExperiment(b, "E13") }
func BenchmarkE14_CMuRule(b *testing.B)                { benchExperiment(b, "E14") }
func BenchmarkE15_KlimovFeedback(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16_ParallelHeavyTraffic(b *testing.B)   { benchExperiment(b, "E16") }
func BenchmarkE17_ConservationLaw(b *testing.B)        { benchExperiment(b, "E17") }
func BenchmarkE18_PerformancePolytope(b *testing.B)    { benchExperiment(b, "E18") }
func BenchmarkE19_LuKumarInstability(b *testing.B)     { benchExperiment(b, "E19") }
func BenchmarkE20_FluidRecoversCMu(b *testing.B)       { benchExperiment(b, "E20") }
func BenchmarkE21_DiscountedKlimov(b *testing.B)       { benchExperiment(b, "E21") }
func BenchmarkE22_PollingRegimes(b *testing.B)         { benchExperiment(b, "E22") }
func BenchmarkE23_PreemptionAblation(b *testing.B)     { benchExperiment(b, "E23") }
func BenchmarkE24_UniformAssignment(b *testing.B)      { benchExperiment(b, "E24") }
func BenchmarkE25_AverageVsDiscounted(b *testing.B)    { benchExperiment(b, "E25") }
func BenchmarkE26_WMuBeyondRegime(b *testing.B)        { benchExperiment(b, "E26") }
func BenchmarkE27_PhaseTypeServices(b *testing.B)      { benchExperiment(b, "E27") }
func BenchmarkE28_FlowShopBlocking(b *testing.B)       { benchExperiment(b, "E28") }
