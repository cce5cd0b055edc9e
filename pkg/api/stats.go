package api

// ---------------------------------------------------------------------------
// GET /v1/stats — point-in-time service counters.

// EndpointStats is one endpoint's counters.
type EndpointStats struct {
	Requests     int64   `json:"requests"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	Deduplicated int64   `json:"deduplicated"`
	Shed         int64   `json:"shed"`
	Errors       int64   `json:"errors"`
	HitRate      float64 `json:"hit_rate"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	// BatchItems counts the individual calls fanned out by /v1/batch
	// requests (only the "batch" endpoint reports it).
	BatchItems int64 `json:"batch_items,omitempty"`
	// Latency is the endpoint's request-latency distribution; absent until
	// the endpoint has served at least one request.
	Latency *LatencyHistogram `json:"latency,omitempty"`
}

// LatencyBucket is one cell of a latency histogram: the count of requests
// whose latency was at most LeMs milliseconds (and above the previous
// bucket's bound). Only non-empty buckets appear on the wire.
type LatencyBucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// LatencyHistogram summarizes an endpoint's request latencies:
// log-spaced bucket counts plus the interpolated p50/p95/p99 quantiles.
// Quantiles are estimated by linear interpolation inside the bucket the
// rank falls in, so their resolution is the bucket width (a factor of two),
// not exact order statistics.
type LatencyHistogram struct {
	Count   int64           `json:"count"`
	P50Ms   float64         `json:"p50_ms"`
	P95Ms   float64         `json:"p95_ms"`
	P99Ms   float64         `json:"p99_ms"`
	MaxMs   float64         `json:"max_ms"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// CacheStats is a point-in-time view of the response cache: total and
// per-shard entry counts (including in-flight entries) and the cumulative
// number of evictions. Watching entries plateau while evictions climb is
// how an over-budget working set shows up; watching entries grow with zero
// evictions across a warm sweep is how per-point cache reuse shows up.
type CacheStats struct {
	Entries      int   `json:"entries"`
	Evictions    int64 `json:"evictions"`
	ShardEntries []int `json:"shard_entries"`
}

// SweepStoreStats summarizes the async sweep job store. CellsExecuted and
// ComputeNs are cumulative across the store's lifetime (evicted jobs
// included): the total number of sweep cells whose execution settled and
// the total wall-clock time spent executing them — how long sweeps spend
// computing becomes a gauge, not just a per-job poll.
type SweepStoreStats struct {
	Jobs          int   `json:"jobs"`
	Running       int   `json:"running"`
	Evictions     int64 `json:"evictions"`
	CellsExecuted int64 `json:"cells_executed"`
	ComputeNs     int64 `json:"compute_ns"`
}

// EngineStats describes the shared worker pool every request's
// replications fan out over: its size and the admission-control view of
// how much work is running on it or queued for it.
type EngineStats struct {
	// Workers is the pool's target parallelism (the service's Parallel
	// configuration after defaulting).
	Workers int `json:"workers"`
	// InFlight is the number of computations currently holding an
	// admission slot.
	InFlight int `json:"in_flight"`
	// QueueDepth is the number of admitted requests waiting for a slot.
	QueueDepth int64 `json:"queue_depth"`
	// BusyNs is the cumulative wall-clock time worker and dispatcher
	// goroutines spent executing task chunks on the pool.
	BusyNs int64 `json:"busy_ns"`
	// ChunksDispatched counts task chunks that ran on a pool worker slot;
	// ChunksInline counts chunks the dispatching goroutine executed itself
	// because the pool was saturated. A high inline share under load means
	// the pool is the bottleneck, not the admission queue.
	ChunksDispatched int64 `json:"chunks_dispatched"`
	ChunksInline     int64 `json:"chunks_inline"`
	// QueueWaitNs is the cumulative time admitted computations spent
	// waiting for an execution slot in the admission queue.
	QueueWaitNs int64 `json:"queue_wait_ns"`
}

// ClusterPeerStats is one peer's view from this node: ring share, health,
// and the forwarding counters this node accumulated against it. The self
// entry is the node itself (never forwarded to; its counters stay zero).
type ClusterPeerStats struct {
	Addr string `json:"addr"`
	Self bool   `json:"self,omitempty"`
	// Healthy reflects the last health observation: a /readyz probe, or
	// passively a forward that failed at the transport level.
	Healthy bool `json:"healthy"`
	// OwnedVNodes is the peer's virtual-point count on the ring — its
	// approximate keyspace share relative to the cluster total.
	OwnedVNodes int `json:"owned_vnodes"`
	// Forwards counts requests this node forwarded to the peer because the
	// peer owned their spec hash; ForwardErrors the subset that failed at
	// the transport level (and fell back to local compute); ForwardNs the
	// cumulative wall-clock forwarding latency.
	Forwards      int64 `json:"forwards"`
	ForwardErrors int64 `json:"forward_errors"`
	ForwardNs     int64 `json:"forward_ns"`
	// Fallbacks counts requests the peer owned but this node served
	// locally because the peer was known unhealthy (degraded mode).
	Fallbacks int64 `json:"fallbacks"`
	// Probes / ProbeFailures count active /readyz health probes.
	Probes        int64 `json:"probes"`
	ProbeFailures int64 `json:"probe_failures"`
}

// ClusterStats is the multi-node view in GET /v1/stats: absent entirely on
// a single-node deployment (no -peers flag).
type ClusterStats struct {
	// Self is this node's own peer address.
	Self string `json:"self"`
	// VNodes is the virtual-node count per peer on the ring.
	VNodes int `json:"vnodes_per_peer"`
	// Peers lists every ring member in canonical (sorted) order.
	Peers []ClusterPeerStats `json:"peers"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Cache     CacheStats               `json:"cache"`
	Sweeps    SweepStoreStats          `json:"sweeps"`
	Engine    EngineStats              `json:"engine"`
	// Cluster is present only when the node runs with -peers.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}
