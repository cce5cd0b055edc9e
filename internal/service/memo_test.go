package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stochsched/internal/cluster"
	"stochsched/internal/scenario"
	"stochsched/internal/scenario/scenariotest"
	"stochsched/pkg/api"
)

// memoLen counts the body memo's entries across every shard.
func memoLen(s *Server) int {
	n := 0
	for i := range s.cache.shards {
		sh := &s.cache.shards[i]
		sh.mu.Lock()
		n += len(sh.memo)
		sh.mu.Unlock()
	}
	return n
}

// TestWarmHitAllocations: a repeated canonical simulate body, sent through
// Handler() the way BenchmarkSimulate/<kind>/warm sends it, is answered
// from the memo with at most 40 allocations per hit — request and
// recorder construction included. A parsed hit makes 93–123, so this
// guards the memo's gain without a timing gate.
func TestWarmHitAllocations(t *testing.T) {
	const maxAllocs = 40
	for _, kind := range scenario.Kinds() {
		body := scenariotest.SimulateBody(kind, 1)
		h := New(Config{}).Handler()
		// A miss fills the cache; the parsed hit after it fills the memo.
		for _, want := range []string{"miss", "hit"} {
			if w := post(t, h, "/v1/simulate", body); w.Header().Get("X-Cache") != want {
				t.Fatalf("%s: X-Cache %q, want %s (code %d: %s)", kind, w.Header().Get("X-Cache"), want, w.Code, w.Body)
			}
		}
		var bad *httptest.ResponseRecorder
		allocs := testing.AllocsPerRun(200, func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "hit" {
				bad = w
			}
		})
		if bad != nil {
			t.Fatalf("%s: warm request answered %d (X-Cache %q): %s", kind, bad.Code, bad.Header().Get("X-Cache"), bad.Body)
		}
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per warm hit, want at most %d", kind, allocs, maxAllocs)
		}
		t.Logf("%s: %.0f allocations per warm hit", kind, allocs)
	}
}

// TestUnknownBatchOpAfterMemo: a batch item whose op is unknown answers
// 400 "unknown batch op" even when the memo already holds its body as an
// index call — the memo is keyed by op path, and an unknown op has none.
func TestUnknownBatchOpAfterMemo(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	want := post(t, h, "/v1/index", gittinsIndexBody).Body.Bytes()
	if w := post(t, h, "/v1/index", gittinsIndexBody); w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat index call: X-Cache %q, want hit", w.Header().Get("X-Cache"))
	}
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d entries after a parsed hit, want 1", n)
	}
	w := post(t, h, "/v1/batch", batchOf(t,
		api.BatchItem{Op: "teleport", Body: json.RawMessage(gittinsIndexBody)},
		api.BatchItem{Op: api.OpIndex, Body: json.RawMessage(gittinsIndexBody)},
	))
	if w.Code != http.StatusOK {
		t.Fatalf("batch: code %d: %s", w.Code, w.Body)
	}
	items := decodeBatch(t, w.Body.Bytes()).Items
	wantErr := `{"error":{"code":"bad_request","message":"unknown batch op \"teleport\" (want index or simulate)"}}`
	if items[0].Status != http.StatusBadRequest || string(items[0].Body) != wantErr {
		t.Errorf("unknown op item: %d %s, want 400 %s", items[0].Status, items[0].Body, wantErr)
	}
	if items[1].Status != http.StatusOK || !bytes.Equal(append(items[1].Body, '\n'), want) {
		t.Errorf("index item: %d %s, want 200 with the /v1/index bytes", items[1].Status, items[1].Body)
	}
	if n := s.eps["batch"].errors.Load(); n != 1 {
		t.Errorf("batch errors %d, want 1 (the unknown op)", n)
	}
}

// TestMemoVariantsHitThroughParser: bodies that differ in bytes but not in
// spec — re-indented, fields reordered, a parallel knob added — are not
// memo hits, so they take the parser, hit the same cache entry, and get
// identical bytes; each then earns its own memo entry.
func TestMemoVariantsHitThroughParser(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	want := post(t, h, "/v1/simulate", simulateBody).Body.Bytes()
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(simulateBody), "", "  "); err != nil {
		t.Fatal(err)
	}
	variants := []string{
		simulateBody,
		indented.String(),
		`{"seed":7,"replications":3,"mg1":{"burnin":2,"horizon":20,"policy":"cmu","spec":{"classes":[{"hold_cost":2,"service_mean":1,"rate":0.5}]}},"kind":"mg1"}`,
		strings.Replace(simulateBody, `"seed":7`, `"seed":7,"parallel":2`, 1),
	}
	for i, body := range variants {
		for rep := 0; rep < 2; rep++ {
			w := post(t, h, "/v1/simulate", body)
			if w.Header().Get("X-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), want) {
				t.Errorf("variant %d, send %d: X-Cache %q, body %s; want a hit with %s", i, rep, w.Header().Get("X-Cache"), w.Body, want)
			}
		}
		if n := memoLen(s); n != i+1 {
			t.Errorf("after variant %d the memo holds %d entries, want %d", i, n, i+1)
		}
	}
	if st := statsOf(t, s); st.Cache.Entries != 1 {
		t.Errorf("cache holds %d entries for one spec, want 1", st.Cache.Entries)
	}
}

// TestMemoSkipsRejectedBodies: a body the parser or the computation
// rejects gets the identical 400 every time, and never enters the memo.
func TestMemoSkipsRejectedBodies(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", `not json`},
		{"/v1/simulate", `{"kind":"warp"}`},
		{"/v1/simulate", strings.Replace(simulateBody, `"replications":3`, `"replications":1`, 1)},
		{"/v1/simulate", strings.Replace(simulateBody, `"rate":0.5`, `"rate":-0.5`, 1)},
		{"/v1/index", `{"kind":"bandit"}`},
		{"/v1/index", indexEnvelope("bandit", []byte(`{"beta":1.5,"transitions":[[1]],"rewards":[1]}`))},
	} {
		first := post(t, h, tc.path, tc.body)
		if first.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: code %d, want 400: %s", tc.path, tc.body, first.Code, first.Body)
		}
		for rep := 1; rep < 3; rep++ {
			w := post(t, h, tc.path, tc.body)
			if w.Code != first.Code || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
				t.Errorf("%s %s, send %d: %d %s, want %d %s", tc.path, tc.body, rep+1, w.Code, w.Body, first.Code, first.Body)
			}
		}
	}
	if n := memoLen(s); n != 0 {
		t.Errorf("memo holds %d entries after only rejected bodies, want 0", n)
	}
}

// TestMemoFallsBackWhenKeyGone: a memoized body whose cache entry was
// evicted recomputes through the parser (X-Cache: miss, identical bytes),
// and one whose entry is in flight joins it (X-Cache: dedup).
func TestMemoFallsBackWhenKeyGone(t *testing.T) {
	s := New(Config{CacheShards: 1})
	h := s.Handler()
	want := post(t, h, "/v1/simulate", simulateBody).Body.Bytes()
	post(t, h, "/v1/simulate", simulateBody)
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d entries after a parsed hit, want 1", n)
	}

	s.cache.shards[0].evictOver(0)
	w := post(t, h, "/v1/simulate", simulateBody)
	if w.Header().Get("X-Cache") != "miss" || !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("after eviction: X-Cache %q, body %s; want a miss with %s", w.Header().Get("X-Cache"), w.Body, want)
	}
	if w := post(t, h, "/v1/simulate", simulateBody); w.Header().Get("X-Cache") != "hit" {
		t.Errorf("after the recompute: X-Cache %q, want hit", w.Header().Get("X-Cache"))
	}

	// Park an in-flight entry under the key: the memoized call must not
	// answer until it completes, and must not compute beside it.
	key := simulateKeyFor(t, s, simulateBody)
	sh := s.cache.shard(key)
	e := &cacheEntry{done: make(chan struct{})}
	sh.mu.Lock()
	sh.m[key] = e
	sh.mu.Unlock()
	misses := s.eps["simulate"].misses.Load()
	got := make(chan *httptest.ResponseRecorder)
	go func() { got <- post(t, h, "/v1/simulate", simulateBody) }()
	select {
	case w := <-got:
		t.Fatalf("answered while its entry was in flight: X-Cache %q, body %s", w.Header().Get("X-Cache"), w.Body)
	case <-time.After(20 * time.Millisecond):
	}
	e.body = want
	close(e.done)
	// dedup, unless the call was too slow to reach the lookup before the
	// release.
	w = <-got
	if x := w.Header().Get("X-Cache"); (x != "dedup" && x != "hit") || !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("in flight: X-Cache %q, body %s; want a dedup with %s", x, w.Body, want)
	}
	if n := s.eps["simulate"].misses.Load(); n != misses {
		t.Errorf("simulate misses went from %d to %d: the in-flight key was computed again", misses, n)
	}
}

// TestMemoHitLooksLikeParsedHit: a miss records nothing; a memo hit's
// trace has the same spans and root attributes as a parsed hit's; and memo
// entries appear in neither the /v1/stats cache entries nor a state
// snapshot.
func TestMemoHitLooksLikeParsedHit(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	post(t, h, "/v1/simulate", simulateBody)
	if n := memoLen(s); n != 0 {
		t.Fatalf("memo holds %d entries after a miss, want 0: only repeats are memoized", n)
	}
	parsedHit := post(t, h, "/v1/simulate", simulateBody)
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d entries after a parsed hit, want 1", n)
	}
	memoHit := post(t, h, "/v1/simulate", simulateBody)
	if !bytes.Equal(memoHit.Body.Bytes(), parsedHit.Body.Bytes()) || memoHit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("memo hit: X-Cache %q, body %s", memoHit.Header().Get("X-Cache"), memoHit.Body)
	}
	shape := func(w *httptest.ResponseRecorder) string {
		root := fetchTrace(t, h, w).Root
		out := fmt.Sprint(root.Attrs)
		for _, c := range root.Children {
			out += fmt.Sprintf(" %s%v", c.Name, c.Attrs)
		}
		return out
	}
	if p, m := shape(parsedHit), shape(memoHit); p != m {
		t.Errorf("memo hit trace %s, parsed hit trace %s", m, p)
	}
	if n := s.eps["simulate"].hits.Load(); n != 2 {
		t.Errorf("simulate hits %d, want 2", n)
	}

	if st := statsOf(t, s); st.Cache.Entries != 1 {
		t.Errorf("stats cache entries %d, want 1: the memo entry is not cached content", st.Cache.Entries)
	}
	if m := get(t, h, "/metrics").Body.String(); !strings.Contains(m, "\nstochsched_cache_entries 1\n") {
		t.Errorf("/metrics does not report exactly one cache entry:\n%s", m)
	}
	snap, err := s.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{})
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if n := memoLen(restored); n != 0 {
		t.Errorf("restored server's memo holds %d entries, want 0", n)
	}
}

// TestMemoConcurrentRepeats: goroutines repeating a few bodies at once,
// through a cache and memo so small that entries are evicted all the
// time, all get their reference bytes, and the memo keeps to its budget.
// It is the memo's test under -race.
func TestMemoConcurrentRepeats(t *testing.T) {
	ref := New(Config{}).Handler()
	bodies := make([]string, 4)
	want := make([][]byte, len(bodies))
	for i := range bodies {
		bodies[i] = strings.Replace(simulateBody, `"seed":7`, fmt.Sprintf(`"seed":%d`, i+1), 1)
		want[i] = post(t, ref, "/v1/simulate", bodies[i]).Body.Bytes()
	}
	s := New(Config{CacheShards: 1, CacheEntriesPerShard: 2})
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(bodies)
				if w := post(t, h, "/v1/simulate", bodies[k]); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want[k]) {
					t.Errorf("body %d: %d %s, want %s", k, w.Code, w.Body, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoLen(s); n > 2 {
		t.Errorf("memo holds %d entries over a budget of 2", n)
	}
}

// TestMemoBoundedWithUnboundedCache: with an unbounded cache, many
// whitespace variants of one cached body, each sent twice by goroutines at
// once, all hit with identical bytes, while the memo keeps to 256 entries:
// variants cost only a parse, so they must not grow the memo as the
// cache's admitted computes grow the cache.
func TestMemoBoundedWithUnboundedCache(t *testing.T) {
	s := New(Config{CacheShards: 1, CacheEntriesPerShard: -1})
	h := s.Handler()
	want := post(t, h, "/v1/simulate", simulateBody).Body.Bytes()
	const variants, workers = 400, 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < variants; i += workers {
				body := strings.Repeat(" ", i+1) + simulateBody
				for send := 0; send < 2; send++ {
					if w := post(t, h, "/v1/simulate", body); w.Header().Get("X-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), want) {
						t.Errorf("variant %d: X-Cache %q, body %s; want a hit with %s", i, w.Header().Get("X-Cache"), w.Body, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memoLen(s); n != defaultEntriesPerShard {
		t.Errorf("memo holds %d entries after %d variants of one cached body, want %d", n, variants, defaultEntriesPerShard)
	}
}

// TestMemoRoutesOnMemoizedKey: in a ring, a memoized body still routes on
// its cache key. A non-owner that memoized a body while serving relayed
// calls forwards the next interactive call to the owner rather than
// answering from its own cache.
func TestMemoRoutesOnMemoizedKey(t *testing.T) {
	servers, _ := newRing(t, 3, nil)
	body := scenariotest.SimulateBody("mg1", 41)
	owner := ownerIndex(t, servers, simulateKeyFor(t, servers[0], body))
	n := servers[(owner+1)%3]
	for _, want := range []string{"miss", "hit"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
		req.Header.Set(cluster.ForwardHeader, "1")
		w := httptest.NewRecorder()
		n.Handler().ServeHTTP(w, req)
		if got := w.Header().Get("X-Cache"); got != want {
			t.Fatalf("relayed call: X-Cache %q, want %s", got, want)
		}
	}
	if m := memoLen(n); m != 1 {
		t.Fatalf("non-owner memo holds %d entries, want 1", m)
	}
	if w := post(t, n.Handler(), "/v1/simulate", body); w.Header().Get("X-Cache") != "forward" {
		t.Errorf("interactive call on the non-owner: X-Cache %q, want forward", w.Header().Get("X-Cache"))
	}
}

// FuzzRepeatBody: whatever the body, sending it three times to one server
// on /v1/simulate or /v1/index — the third send takes the memo path when
// the first two were a miss and a parsed hit — answers each time with the
// status and bytes a fresh server answers it once with. The seed corpus is
// the goldens' request bodies; the work budget keeps any one computation
// short.
func FuzzRepeatBody(f *testing.F) {
	reqs, err := filepath.Glob(filepath.Join("testdata", "*_req.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range reqs {
		body, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	cfg := Config{MaxSimWork: 1e6}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/simulate", "/v1/index"} {
			want := post(t, New(cfg).Handler(), path, string(body))
			s := New(cfg)
			h := s.Handler()
			for send := 1; send <= 3; send++ {
				w := post(t, h, path, string(body))
				if w.Code != want.Code || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
					t.Fatalf("%s send %d: %d %s; a fresh server answers %d %s", path, send, w.Code, w.Body, want.Code, want.Body)
				}
			}
			if memoized := memoLen(s) == 1; memoized != (want.Code == http.StatusOK) {
				t.Fatalf("%s: answered %d, memo holds %d entries", path, want.Code, memoLen(s))
			}
		}
	})
}
