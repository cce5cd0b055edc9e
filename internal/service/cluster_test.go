package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"stochsched/internal/cluster"
	"stochsched/internal/scenario"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/internal/sweep"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// ---------------------------------------------------------------------------
// Test harness: an N-node ring wired over in-process handler transports.
// No sockets — each peer's client dials the target server's http.Handler
// directly, which is exactly the seam production fills with *http.Client.

// peerRegistry maps peer addresses to live handlers. Handlers are looked
// up per request, so a test can install them after cluster construction
// (breaking the chicken-and-egg between ring and servers) and "kill" a
// peer mid-test by setting its handler to nil.
type peerRegistry struct {
	mu sync.Mutex
	m  map[string]http.Handler
}

func (pr *peerRegistry) set(addr string, h http.Handler) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.m[addr] = h
}

func (pr *peerRegistry) dial(peer string) client.Doer {
	return registryDoer{pr: pr, peer: peer}
}

type registryDoer struct {
	pr   *peerRegistry
	peer string
}

func (d registryDoer) Do(req *http.Request) (*http.Response, error) {
	d.pr.mu.Lock()
	h := d.pr.m[d.peer]
	d.pr.mu.Unlock()
	if h == nil {
		return nil, fmt.Errorf("dial %s: connection refused", d.peer)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Result(), nil
}

// newRing builds an n-node cluster of servers sharing one ring. mod, if
// non-nil, adjusts each node's Config before construction.
func newRing(t *testing.T, n int, mod func(*Config)) ([]*Server, *peerRegistry) {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("http://node%d", i)
	}
	reg := &peerRegistry{m: make(map[string]http.Handler, n)}
	servers := make([]*Server, n)
	for i, addr := range addrs {
		cl, err := cluster.New(cluster.Config{Self: addr, Peers: addrs, Dial: reg.dial})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Cluster: cl}
		if mod != nil {
			mod(&cfg)
		}
		servers[i] = New(cfg)
		reg.set(addr, servers[i].Handler())
	}
	return servers, reg
}

// ownerIndex returns which node of servers owns key on the ring.
func ownerIndex(t *testing.T, servers []*Server, key string) int {
	t.Helper()
	owner := servers[0].cluster.Ring().Owner(key)
	for i, s := range servers {
		if s.cluster.Self() == owner {
			return i
		}
	}
	t.Fatalf("owner %q is not a ring member", owner)
	return -1
}

// simulateKeyFor parses a simulate body the way the serving layer does and
// returns its routing key.
func simulateKeyFor(t *testing.T, s *Server, body string) string {
	t.Helper()
	p, err := parseSimulate(s, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return p.key
}

// sweepCellKeys expands a sweep body the way the job store does and
// returns each cell's routing key, in cell order.
func sweepCellKeys(t *testing.T, s *Server, body string) []string {
	t.Helper()
	req, err := sweep.DecodeRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.Expand(req, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, plan.Cells())
	for i := range keys {
		keys[i] = simulateKeyFor(t, s, string(plan.Cell(i)))
	}
	return keys
}

// remoteOwned counts the keys a peer other than s owns on the ring: the
// calls s must forward when every peer is healthy.
func remoteOwned(s *Server, keys []string) int64 {
	n := int64(0)
	for _, k := range keys {
		if s.cluster.Ring().Owner(k) != s.cluster.Self() {
			n++
		}
	}
	return n
}

// forwards sums the forwards s made to every peer.
func forwards(s *Server) int64 {
	n := int64(0)
	for _, p := range s.cluster.Stats().Peers {
		n += p.Forwards
	}
	return n
}

// ringMisses sums cache misses over every bucket of every node: the
// number of computations the whole ring ran.
func ringMisses(servers []*Server) int64 {
	n := int64(0)
	for _, s := range servers {
		for _, m := range s.eps {
			n += m.misses.Load()
		}
	}
	return n
}

// runSweep submits a sweep body to h, waits for it to settle, and returns
// its final status and NDJSON result stream.
func runSweep(t *testing.T, h http.Handler, body string) (api.SweepStatus, []byte) {
	t.Helper()
	c := client.NewInProcess(h)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SweepSubmitRaw(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.SweepWait(ctx, st.ID, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.SweepResults(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return *final, rows
}

// ---------------------------------------------------------------------------
// Golden byte-identity: 1-node vs 3-node

// TestClusterSimulateByteIdentity pins the tentpole determinism claim:
// for every registered kind, the simulate body served by every node of a
// 3-node ring is byte-identical to the single-node response — routing
// changes WHERE a response is computed, never WHAT.
func TestClusterSimulateByteIdentity(t *testing.T) {
	single := New(Config{}).Handler()
	servers, _ := newRing(t, 3, nil)
	for _, kind := range scenario.Kinds() {
		body := scenariotest.SimulateBody(kind, 17)
		w := post(t, single, "/v1/simulate", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: single-node code %d: %s", kind, w.Code, w.Body)
		}
		want := w.Body.Bytes()
		for i, s := range servers {
			wc := post(t, s.Handler(), "/v1/simulate", body)
			if wc.Code != http.StatusOK {
				t.Fatalf("%s: node %d code %d: %s", kind, i, wc.Code, wc.Body)
			}
			if !bytes.Equal(wc.Body.Bytes(), want) {
				t.Errorf("%s: node %d body differs from single-node:\n got %s\nwant %s",
					kind, i, wc.Body.Bytes(), want)
			}
		}
	}
}

// TestClusterIndexByteIdentity is the same pin for the analytic index
// surface.
func TestClusterIndexByteIdentity(t *testing.T) {
	single := New(Config{}).Handler()
	servers, _ := newRing(t, 3, nil)
	for _, tc := range []struct{ path, body string }{
		{"/v1/index", scenariotest.IndexBody("bandit")},
		{"/v1/index", scenariotest.IndexBody("restless")},
		{"/v1/index", scenariotest.IndexBody("mg1")},
	} {
		w := post(t, single, tc.path, tc.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: single-node code %d: %s", tc.path, w.Code, w.Body)
		}
		want := w.Body.Bytes()
		for i, s := range servers {
			wc := post(t, s.Handler(), tc.path, tc.body)
			if wc.Code != http.StatusOK {
				t.Fatalf("%s: node %d code %d: %s", tc.path, i, wc.Code, wc.Body)
			}
			if !bytes.Equal(wc.Body.Bytes(), want) {
				t.Errorf("%s: node %d body differs from single-node", tc.path, i)
			}
		}
	}
}

// TestClusterSweepNDJSONByteIdentity runs the same sweep on a single node
// and through every node of a 3-node ring (cells fanning out to their
// owners) and requires the NDJSON result stream byte-identical everywhere.
// Local compute yields the same bytes, so the test also pins that the
// cells are really routed: node 0 forwards exactly the cells a remote
// peer owns, bills every cell to sweep_cells, and the ring computes each
// cell once.
func TestClusterSweepNDJSONByteIdentity(t *testing.T) {
	sweepBody := fmt.Sprintf(
		`{"base": %s, "grid": {"axes": [{"path":"mg1.spec.classes.0.rate","values":[0.2,0.25,0.3]}]}, "policies": ["cmu","fifo"]}`,
		scenariotest.SimulateBody("mg1", 23))

	_, want := runSweep(t, New(Config{}).Handler(), sweepBody)
	if len(bytes.Split(bytes.TrimSpace(want), []byte("\n"))) != 3 {
		t.Fatalf("single-node sweep produced %q, want 3 rows (one per grid point)", want)
	}
	servers, _ := newRing(t, 3, nil)
	keys := sweepCellKeys(t, servers[0], sweepBody)
	for i, s := range servers {
		_, got := runSweep(t, s.Handler(), sweepBody)
		if !bytes.Equal(got, want) {
			t.Errorf("node %d sweep NDJSON differs from single-node:\n got %s\nwant %s", i, got, want)
		}
		if i == 0 {
			if got, want := forwards(s), remoteOwned(s, keys); got != want {
				t.Errorf("node 0 forwarded %d cells, want the %d a remote peer owns", got, want)
			}
			if got := s.eps["sweep_cells"].requests.Load(); got != int64(len(keys)) {
				t.Errorf("node 0 billed %d sweep_cells requests, want all %d cells", got, len(keys))
			}
		}
	}
	if got := ringMisses(servers); got != int64(len(keys)) {
		t.Errorf("ring computed %d times, want each of the %d cells once", got, len(keys))
	}
}

// ---------------------------------------------------------------------------
// Routing mechanics

// TestClusterForwardsToOwner pins that a non-owner relays (X-Cache:
// forward) while the owner serves locally, and that the owner's cache
// means the whole ring computes each spec exactly once.
func TestClusterForwardsToOwner(t *testing.T) {
	servers, _ := newRing(t, 3, nil)
	body := scenariotest.SimulateBody("mg1", 31)
	owner := ownerIndex(t, servers, simulateKeyFor(t, servers[0], body))

	for i, s := range servers {
		w := post(t, s.Handler(), "/v1/simulate", body)
		if w.Code != http.StatusOK {
			t.Fatalf("node %d code %d: %s", i, w.Code, w.Body)
		}
		wantHeader := "forward"
		if i == owner {
			wantHeader = "miss"
			if i != 0 {
				wantHeader = "hit" // an earlier node already forwarded it here
			}
		}
		if got := w.Header().Get("X-Cache"); got != wantHeader {
			t.Errorf("node %d (owner %d): X-Cache %q, want %q", i, owner, got, wantHeader)
		}
	}

	// Exactly one compute across the ring: every miss happened on the
	// owner, everyone else forwarded or hit.
	totalMisses := int64(0)
	for _, s := range servers {
		totalMisses += s.eps["simulate"].misses.Load()
	}
	if totalMisses != 1 {
		t.Errorf("ring computed the spec %d times, want exactly 1", totalMisses)
	}
	if f := servers[owner].cluster.Stats(); f.Peers[0].Forwards+f.Peers[1].Forwards+f.Peers[2].Forwards != 0 {
		t.Error("owner forwarded its own key")
	}
}

// TestClusterForwardedHeaderPreventsLoops: a request already marked
// forwarded is served locally whatever the ring says — the depth-1 loop
// guard for disagreeing peer lists.
func TestClusterForwardedHeaderPreventsLoops(t *testing.T) {
	servers, _ := newRing(t, 3, nil)
	body := scenariotest.SimulateBody("mg1", 37)
	owner := ownerIndex(t, servers, simulateKeyFor(t, servers[0], body))
	nonOwner := (owner + 1) % 3

	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	req.Header.Set(cluster.ForwardHeader, "1")
	w := httptest.NewRecorder()
	servers[nonOwner].Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("forwarded request got X-Cache %q, want miss (served locally)", got)
	}
	if n := servers[nonOwner].eps["simulate"].misses.Load(); n != 1 {
		t.Errorf("non-owner computed %d times, want 1 (local serve)", n)
	}
}

// TestClusterSingleflightAcrossPeers: concurrent identical requests
// arriving at every node dedup into ONE computation — the owner's local
// singleflight is the cluster-wide singleflight.
func TestClusterSingleflightAcrossPeers(t *testing.T) {
	servers, _ := newRing(t, 3, nil)
	body := scenariotest.SimulateBody("mg1", 41)

	const perNode = 4
	var wg sync.WaitGroup
	bodies := make([][]byte, len(servers)*perNode)
	for i, s := range servers {
		for j := 0; j < perNode; j++ {
			wg.Add(1)
			go func(slot int, h http.Handler) {
				defer wg.Done()
				w := post(t, h, "/v1/simulate", body)
				if w.Code == http.StatusOK {
					bodies[slot] = w.Body.Bytes()
				}
			}(i*perNode+j, s.Handler())
		}
	}
	wg.Wait()

	for i, b := range bodies {
		if b == nil {
			t.Fatalf("request %d failed", i)
		}
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	totalMisses := int64(0)
	for _, s := range servers {
		totalMisses += s.eps["simulate"].misses.Load()
	}
	if totalMisses != 1 {
		t.Errorf("ring computed the spec %d times under concurrency, want exactly 1", totalMisses)
	}
}

// TestClusterBatchItemsRouteIndividually: one batch posted to one node
// fans items out to their owners, and the batch response is byte-identical
// to the single-node one. Node 0 forwards exactly the items a remote peer
// owns, and the ring computes each item once.
func TestClusterBatchItemsRouteIndividually(t *testing.T) {
	items := []struct{ op, body string }{
		{api.OpSimulate, scenariotest.SimulateBody("mg1", 43)},
		{api.OpSimulate, scenariotest.SimulateBody("bandit", 43)},
		{api.OpIndex, scenariotest.IndexBody("bandit")},
	}
	batchBody := fmt.Sprintf(`{"items":[{"op":%q,"body":%s},{"op":%q,"body":%s},{"op":%q,"body":%s}]}`,
		items[0].op, items[0].body, items[1].op, items[1].body, items[2].op, items[2].body)

	w := post(t, New(Config{}).Handler(), "/v1/batch", batchBody)
	if w.Code != http.StatusOK {
		t.Fatalf("single-node batch code %d: %s", w.Code, w.Body)
	}
	want := w.Body.Bytes()

	servers, _ := newRing(t, 3, nil)
	keys := make([]string, len(items))
	for i, it := range items {
		parse := parseSimulate
		if it.op == api.OpIndex {
			parse = parseIndex
		}
		p, err := parse(servers[0], []byte(it.body))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = p.key
	}
	for i, s := range servers {
		wc := post(t, s.Handler(), "/v1/batch", batchBody)
		if wc.Code != http.StatusOK {
			t.Fatalf("node %d batch code %d: %s", i, wc.Code, wc.Body)
		}
		if !bytes.Equal(wc.Body.Bytes(), want) {
			t.Errorf("node %d batch body differs from single-node", i)
		}
		if i == 0 {
			if got, want := forwards(s), remoteOwned(s, keys); got != want {
				t.Errorf("node 0 forwarded %d items, want the %d a remote peer owns", got, want)
			}
		}
	}
	if got := ringMisses(servers); got != int64(len(items)) {
		t.Errorf("ring computed %d times, want each of the %d items once", got, len(items))
	}
}

// TestClusterOwnerErrorPolicy pins what each front door does when the
// owner answers with an error envelope (here 429, a shedding peer): an
// interactive call relays the owner's envelope, while a sweep cell — a
// shed cell would fail its whole job — computes locally, so the sweep
// still settles done with single-node bytes.
func TestClusterOwnerErrorPolicy(t *testing.T) {
	sweepBody := fmt.Sprintf(
		`{"base": %s, "grid": {"axes": [{"path":"mg1.spec.classes.0.rate","values":[0.2,0.25,0.3]}]}, "policies": ["cmu","fifo"]}`,
		scenariotest.SimulateBody("mg1", 29))
	_, want := runSweep(t, New(Config{}).Handler(), sweepBody)

	servers, reg := newRing(t, 3, nil)
	req, err := sweep.DecodeRequest([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sweep.Expand(req, servers[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	// The shedding peer is the owner of the first cell node 0 does not own.
	var peer, cell string
	for i := 0; i < plan.Cells() && peer == ""; i++ {
		if owner := servers[0].cluster.Ring().Owner(simulateKeyFor(t, servers[0], string(plan.Cell(i)))); owner != servers[0].cluster.Self() {
			peer, cell = owner, string(plan.Cell(i))
		}
	}
	if peer == "" {
		t.Fatal("node 0 owns every cell: the owner-error path is untested")
	}
	reg.set(peer, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeError(w, http.StatusTooManyRequests, api.ErrCodeOverloaded, "server overloaded: admission queue full")
	}))

	w := post(t, servers[0].Handler(), "/v1/simulate", cell)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("interactive call to a shedding owner: code %d, want 429: %s", w.Code, w.Body)
	}
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Err.Code != api.ErrCodeOverloaded {
		t.Errorf("relayed envelope %s (%v), want code %s", w.Body, err, api.ErrCodeOverloaded)
	}
	if n := servers[0].eps["simulate"].shed.Load(); n != 1 {
		t.Errorf("relayed 429 billed %d sheds, want 1", n)
	}
	if !servers[0].cluster.Healthy(peer) {
		t.Error("an owner answering 429 was marked down; an error envelope is not a health signal")
	}

	final, got := runSweep(t, servers[0].Handler(), sweepBody)
	if final.State != api.SweepDone {
		t.Fatalf("sweep with a shedding owner settled %q (%s), want done", final.State, final.Error)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sweep with a shedding owner differs from single-node:\n got %s\nwant %s", got, want)
	}
	if n := servers[0].eps["sweep_cells"].requests.Load(); n != int64(plan.Cells()) {
		t.Errorf("node 0 billed %d sweep_cells requests, want all %d cells", n, plan.Cells())
	}
}

// ---------------------------------------------------------------------------
// Degraded mode

// TestClusterKillOnePeerFallsBackLocally is the degradation proof: with
// one peer dead, every request still succeeds (served locally via
// fallback after the first transport failure marks the peer down) and the
// responses stay byte-identical to the healthy ring's.
func TestClusterKillOnePeerFallsBackLocally(t *testing.T) {
	servers, _ := newRing(t, 3, nil)

	// Reference bodies from the healthy ring (node 0's view).
	const seeds = 8
	want := make(map[uint64][]byte, seeds)
	for seed := uint64(0); seed < seeds; seed++ {
		w := post(t, servers[0].Handler(), "/v1/simulate", scenariotest.SimulateBody("mg1", 100+seed))
		if w.Code != http.StatusOK {
			t.Fatalf("healthy ring seed %d: code %d", seed, w.Code)
		}
		want[seed] = w.Body.Bytes()
	}

	// Kill node 1. A fresh ring (cold caches) isolates the degraded path;
	// same peer list, same ownership.
	servers2, reg2 := newRing(t, 3, nil)
	reg2.set("http://node1", nil)

	for seed := uint64(0); seed < seeds; seed++ {
		w := post(t, servers2[0].Handler(), "/v1/simulate", scenariotest.SimulateBody("mg1", 100+seed))
		if w.Code != http.StatusOK {
			t.Fatalf("degraded ring seed %d: code %d: %s — a dead peer must not surface errors", seed, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), want[seed]) {
			t.Errorf("degraded ring seed %d: body differs from healthy ring", seed)
		}
	}

	// At least one of those specs was owned by the dead node (with 8 specs
	// over 3 peers the odds of zero are negligible; if ownership shifts,
	// the fallback counters stay zero and this catches it).
	cs := servers2[0].cluster.Stats()
	var fallbacks, forwardErrors int64
	for _, p := range cs.Peers {
		fallbacks += p.Fallbacks
		forwardErrors += p.ForwardErrors
	}
	if fallbacks+forwardErrors == 0 {
		t.Error("no request exercised the dead peer: fallback path untested")
	}
	if servers2[0].cluster.Healthy("http://node1") {
		t.Error("dead peer still considered healthy after a failed forward")
	}

	// Sweeps degrade the same way: cells owned by the dead peer compute
	// locally, and the stream matches the healthy single-node bytes.
	sweepBody := fmt.Sprintf(
		`{"base": %s, "grid": {"axes": [{"path":"mg1.spec.classes.0.rate","values":[0.2,0.3]}]}}`,
		scenariotest.SimulateBody("mg1", 57))
	if final, _ := runSweep(t, servers2[0].Handler(), sweepBody); final.State != api.SweepDone {
		t.Fatalf("degraded sweep settled %q (%s), want done", final.State, final.Error)
	}
}

// ---------------------------------------------------------------------------
// Legibility

// TestClusterStatsAndMetrics: the stats cluster block and the Prometheus
// cluster families appear on ring members and stay absent on single nodes.
func TestClusterStatsAndMetrics(t *testing.T) {
	servers, _ := newRing(t, 3, nil)
	body := scenariotest.SimulateBody("mg1", 61)
	post(t, servers[0].Handler(), "/v1/simulate", body)

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	servers[0].Handler().ServeHTTP(w, req)
	var stats api.StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cluster == nil {
		t.Fatal("ring member reports no cluster block in /v1/stats")
	}
	if stats.Cluster.Self != "http://node0" || len(stats.Cluster.Peers) != 3 {
		t.Errorf("cluster block %+v", stats.Cluster)
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	servers[0].Handler().ServeHTTP(w, req)
	for _, family := range []string{
		"stochsched_cluster_peer_healthy", "stochsched_cluster_forwards_total",
		"stochsched_cluster_fallbacks_total", "stochsched_cluster_probes_total",
	} {
		if !strings.Contains(w.Body.String(), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	// Single node: no cluster block, no cluster families.
	single := New(Config{})
	w = httptest.NewRecorder()
	single.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if strings.Contains(w.Body.String(), `"cluster"`) {
		t.Error("single node exposes a cluster stats block")
	}
	w = httptest.NewRecorder()
	single.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(w.Body.String(), "stochsched_cluster_") {
		t.Error("single node exposes cluster metric families")
	}
}

// TestClusterForwardSpanInTrace: a forwarded request's trace carries the
// forward span annotated with the peer, so cross-node hops are legible.
func TestClusterForwardSpanInTrace(t *testing.T) {
	servers, _ := newRing(t, 3, nil)
	body := scenariotest.SimulateBody("mg1", 67)
	owner := ownerIndex(t, servers, simulateKeyFor(t, servers[0], body))
	nonOwner := (owner + 1) % 3

	w := post(t, servers[nonOwner].Handler(), "/v1/simulate", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code %d", w.Code)
	}
	id := w.Header().Get("X-Request-Id")
	req := httptest.NewRequest(http.MethodGet, "/v1/trace/"+id, nil)
	tw := httptest.NewRecorder()
	servers[nonOwner].Handler().ServeHTTP(tw, req)
	if tw.Code != http.StatusOK {
		t.Fatalf("trace code %d: %s", tw.Code, tw.Body)
	}
	trace := tw.Body.String()
	if !strings.Contains(trace, `"forward"`) {
		t.Errorf("trace of a forwarded request has no forward span: %s", trace)
	}
	if !strings.Contains(trace, servers[owner].cluster.Self()) {
		t.Errorf("forward span not annotated with the owning peer: %s", trace)
	}
}
