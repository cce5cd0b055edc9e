package api

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The pre-histogram wire shapes, frozen at the revision that introduced
// latency histograms and engine-pool stats, minus the top-level in_flight,
// waiting, and cache_entries mirrors since removed (engine.in_flight,
// engine.queue_depth, and cache.entries carry them). The compat test below
// proves every other field that existed then still marshals byte-for-byte
// identically, so old clients keep decoding what remains.
type legacyEndpointStats struct {
	Requests     int64   `json:"requests"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	Deduplicated int64   `json:"deduplicated"`
	Shed         int64   `json:"shed"`
	Errors       int64   `json:"errors"`
	HitRate      float64 `json:"hit_rate"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	BatchItems   int64   `json:"batch_items,omitempty"`
}

type legacyStatsResponse struct {
	Endpoints map[string]legacyEndpointStats `json:"endpoints"`
	Cache     CacheStats                     `json:"cache"`
	Sweeps    SweepStoreStats                `json:"sweeps"`
}

func TestStatsResponseCompatShape(t *testing.T) {
	ep := EndpointStats{
		Requests:     120,
		CacheHits:    60,
		CacheMisses:  40,
		Deduplicated: 20,
		Shed:         3,
		Errors:       2,
		HitRate:      0.6666666666666666,
		AvgLatencyMs: 1.25,
		BatchItems:   7,
		Latency: &LatencyHistogram{
			Count: 120, P50Ms: 1.0, P95Ms: 4.0, P99Ms: 8.0, MaxMs: 9.5,
			Buckets: []LatencyBucket{{LeMs: 1.024, Count: 80}, {LeMs: 8.192, Count: 40}},
		},
	}
	cache := CacheStats{Entries: 5, Evictions: 1, ShardEntries: []int{2, 3}}
	sweeps := SweepStoreStats{Jobs: 4, Running: 1, Evictions: 2}
	now := StatsResponse{
		Endpoints: map[string]EndpointStats{"simulate": ep, "index": {Requests: 1}},
		Cache:     cache,
		Sweeps:    sweeps,
		Engine:    EngineStats{Workers: 4, InFlight: 2, QueueDepth: 9},
	}
	legacyEp := func(e EndpointStats) legacyEndpointStats {
		return legacyEndpointStats{
			Requests: e.Requests, CacheHits: e.CacheHits, CacheMisses: e.CacheMisses,
			Deduplicated: e.Deduplicated, Shed: e.Shed, Errors: e.Errors,
			HitRate: e.HitRate, AvgLatencyMs: e.AvgLatencyMs, BatchItems: e.BatchItems,
		}
	}
	legacy := legacyStatsResponse{
		Endpoints: map[string]legacyEndpointStats{
			"simulate": legacyEp(now.Endpoints["simulate"]),
			"index":    legacyEp(now.Endpoints["index"]),
		},
		Cache:  cache,
		Sweeps: sweeps,
	}

	gotRaw, err := json.Marshal(now)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}

	var got, want map[string]json.RawMessage
	if err := json.Unmarshal(gotRaw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatal(err)
	}

	// Every pre-existing top-level field must be byte-identical.
	for key, wantVal := range want {
		if key == "endpoints" {
			continue // compared field-by-field below
		}
		gotVal, ok := got[key]
		if !ok {
			t.Errorf("pre-existing field %q missing from new shape", key)
			continue
		}
		if !bytes.Equal(gotVal, wantVal) {
			t.Errorf("field %q changed: %s -> %s", key, wantVal, gotVal)
		}
	}

	// Inside each endpoint object, every pre-existing field must be
	// byte-identical; only the new latency key may be added.
	var gotEps, wantEps map[string]map[string]json.RawMessage
	if err := json.Unmarshal(got["endpoints"], &gotEps); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want["endpoints"], &wantEps); err != nil {
		t.Fatal(err)
	}
	for name, wantFields := range wantEps {
		gotFields := gotEps[name]
		for key, wantVal := range wantFields {
			if !bytes.Equal(gotFields[key], wantVal) {
				t.Errorf("endpoint %s field %q changed: %s -> %s", name, key, wantVal, gotFields[key])
			}
		}
		for key := range gotFields {
			if _, ok := wantFields[key]; !ok && key != "latency" {
				t.Errorf("endpoint %s gained unexpected field %q", name, key)
			}
		}
	}

	// The only new top-level key is engine (additive); the removed mirrors
	// stay gone.
	for key := range got {
		if _, ok := want[key]; !ok && key != "engine" {
			t.Errorf("unexpected new top-level field %q", key)
		}
	}
	for _, key := range []string{"in_flight", "waiting", "cache_entries"} {
		if _, ok := got[key]; ok {
			t.Errorf("removed top-level field %q is back", key)
		}
	}

	// A legacy client decoding the new body into the old struct must see
	// every field it knows about unchanged.
	var redecoded legacyStatsResponse
	if err := json.Unmarshal(gotRaw, &redecoded); err != nil {
		t.Fatalf("legacy client failed to decode new body: %v", err)
	}
	if redecoded.Cache.Entries != 5 {
		t.Errorf("legacy decode mismatch: %+v", redecoded)
	}
	if redecoded.Endpoints["simulate"].Requests != 120 {
		t.Errorf("legacy endpoint decode mismatch: %+v", redecoded.Endpoints["simulate"])
	}
}
