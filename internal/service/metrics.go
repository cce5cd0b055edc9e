package service

import (
	"sync/atomic"
	"time"

	"stochsched/pkg/api"
)

// EndpointMetrics holds the per-endpoint counters exposed at /v1/stats.
// All fields are updated atomically by the request path.
type EndpointMetrics struct {
	requests   atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	dedups     atomic.Int64
	shed       atomic.Int64
	errors     atomic.Int64
	latencyNs  atomic.Int64
	batchItems atomic.Int64 // /v1/batch only: individual calls fanned out
	hist       latencyHist
}

// observeLatency records one request's wall-clock latency into both the
// running average and the histogram, so the two /v1/stats views can never
// come from different populations.
func (m *EndpointMetrics) observeLatency(d time.Duration) {
	m.latencyNs.Add(int64(d))
	m.hist.record(d)
}

// observe counts one served call by its X-Cache outcome. A forwarded
// call counts as neither hit nor miss: the owner counts it.
func (m *EndpointMetrics) observe(outcome string) {
	switch outcome {
	case "hit":
		m.hits.Add(1)
	case "miss":
		m.misses.Add(1)
	case "dedup":
		m.dedups.Add(1)
	}
}

func (m *EndpointMetrics) snapshot() api.EndpointStats {
	s := api.EndpointStats{
		Requests:     m.requests.Load(),
		CacheHits:    m.hits.Load(),
		CacheMisses:  m.misses.Load(),
		Deduplicated: m.dedups.Load(),
		Shed:         m.shed.Load(),
		Errors:       m.errors.Load(),
		BatchItems:   m.batchItems.Load(),
	}
	// Hit rate counts dedup joins as hits: they were served without a
	// recompute, which is what the rate is meant to measure.
	if looked := s.CacheHits + s.CacheMisses + s.Deduplicated; looked > 0 {
		s.HitRate = float64(s.CacheHits+s.Deduplicated) / float64(looked)
	}
	if s.Requests > 0 {
		s.AvgLatencyMs = float64(m.latencyNs.Load()) / float64(s.Requests) / float64(time.Millisecond)
	}
	s.Latency = m.hist.snapshot()
	return s
}
