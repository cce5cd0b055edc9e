package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

// ForwardHeader marks a request as already forwarded once. The owner of a
// key serves any request carrying it locally, whatever the ring says —
// the depth-1 guarantee that makes routing loops impossible even when two
// nodes briefly disagree about ownership (e.g. mismatched -peers lists).
const ForwardHeader = "X-Stochsched-Forwarded"

// DefaultProbeInterval is the /readyz health-probe period.
const DefaultProbeInterval = 2 * time.Second

// Config describes one node's view of the cluster.
type Config struct {
	// Self is this node's own peer address; it must appear in Peers.
	Self string
	// Peers is the full static peer list, self included. Every node must
	// be configured with the same set (order-insensitive).
	Peers []string
	// Dial returns the transport for one peer. Nil dials real HTTP with a
	// shared client; tests inject in-process handler transports here.
	Dial func(peer string) client.Doer
}

// peerState is the runtime state this node keeps per remote peer.
type peerState struct {
	addr   string
	client *client.Client

	healthy       atomic.Bool
	forwards      atomic.Int64
	forwardErrors atomic.Int64
	forwardNs     atomic.Int64
	fallbacks     atomic.Int64
	probes        atomic.Int64
	probeFailures atomic.Int64
}

// Cluster is one node's runtime view of the ring: routing decisions,
// forwarding clients, health state, and per-peer counters. Construct with
// New; safe for concurrent use.
type Cluster struct {
	self  string
	ring  *Ring
	peers map[string]*peerState // remote peers only
}

// New validates cfg and builds the node's cluster runtime. Forwarding
// clients are constructed once per remote peer: retries disabled (the
// caller's degraded-mode fallback is the retry policy) and the forwarding
// header stamped so the owner always serves the request locally.
func New(cfg Config) (*Cluster, error) {
	ring, err := NewRing(cfg.Peers, DefaultVNodes)
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, ring.Peers())
	}
	dial := cfg.Dial
	if dial == nil {
		shared := &http.Client{Timeout: 30 * time.Second}
		dial = func(string) client.Doer { return shared }
	}
	c := &Cluster{
		self:  cfg.Self,
		ring:  ring,
		peers: make(map[string]*peerState, len(ring.Peers())-1),
	}
	for _, addr := range ring.Peers() {
		if addr == cfg.Self {
			continue
		}
		ps := &peerState{
			addr: addr,
			client: client.New(addr,
				client.WithHTTPClient(dial(addr)),
				client.WithRetry(0, 0),
				client.WithHeader(ForwardHeader, "1")),
		}
		// Peers start optimistically healthy: the first forward or probe
		// corrects the view, and starting pessimistic would make every
		// node serve everything locally until a probe cycle completes —
		// a cold-start window where the cluster silently isn't one.
		ps.healthy.Store(true)
		c.peers[addr] = ps
	}
	return c, nil
}

// Self returns this node's own peer address.
func (c *Cluster) Self() string { return c.self }

// Ring returns the routing table (immutable, shared).
func (c *Cluster) Ring() *Ring { return c.ring }

// Decision is the outcome of routing one key.
type Decision struct {
	// Peer is the ring owner of the key.
	Peer string
	// Forward means the owner is a healthy remote peer: forward to it.
	Forward bool
	// Fallback means the owner is a remote peer currently considered
	// down: serve locally in degraded mode. Route has already counted
	// the fallback against the peer.
	Fallback bool
}

// Route decides where a key should be served. Exactly one of three
// shapes comes back: self-owned (!Forward && !Fallback), forward to a
// healthy owner, or degraded-mode local fallback for a down owner.
func (c *Cluster) Route(key string) Decision {
	owner := c.ring.Owner(key)
	if owner == c.self {
		return Decision{Peer: owner}
	}
	ps := c.peers[owner]
	if !ps.healthy.Load() {
		ps.fallbacks.Add(1)
		return Decision{Peer: owner, Fallback: true}
	}
	return Decision{Peer: owner, Forward: true}
}

// Forward POSTs body to path on peer and returns the owner's response
// bytes verbatim. A transport-level failure marks the peer down (so the
// caller's local fallback kicks in immediately and subsequent requests
// stop trying until a probe revives it) and is reported as an error; a
// *client.APIError is the owner answering with a non-2xx envelope, which
// the caller should relay as-is — the owner did serve the request.
func (c *Cluster) Forward(ctx context.Context, peer, path string, body []byte) ([]byte, error) {
	ps := c.peers[peer]
	ps.forwards.Add(1)
	start := time.Now()
	resp, err := ps.client.PostRaw(ctx, path, body)
	ps.forwardNs.Add(time.Since(start).Nanoseconds())
	if err != nil {
		if _, ok := err.(*client.APIError); ok {
			return nil, err // owner answered; not a health signal
		}
		ps.forwardErrors.Add(1)
		ps.healthy.Store(false)
		return nil, fmt.Errorf("cluster: forwarding to %s: %w", peer, err)
	}
	return resp, nil
}

// Healthy reports the current health view of peer (self is always
// healthy).
func (c *Cluster) Healthy(peer string) bool {
	if peer == c.self {
		return true
	}
	return c.peers[peer].healthy.Load()
}

// probeOnce probes every remote peer's /readyz and updates the health
// view: a down peer that answers again is revived, a peer that stops
// answering is marked down. An *client.APIError counts as down too —
// /readyz answering 503 means the peer is up but not ready to own load
// (saturated, or still restoring state).
func (c *Cluster) probeOnce(ctx context.Context) {
	for _, ps := range c.peers {
		ps.probes.Add(1)
		err := ps.client.Readyz(ctx)
		if err != nil {
			ps.probeFailures.Add(1)
		}
		ps.healthy.Store(err == nil)
	}
}

// Start launches the background health-probe loop; it stops when ctx is
// cancelled. Single-node rings have nothing to probe and return at once.
func (c *Cluster) Start(ctx context.Context) {
	if len(c.peers) == 0 {
		return
	}
	go func() {
		t := time.NewTicker(DefaultProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.probeOnce(ctx)
			}
		}
	}()
}

// Stats returns the node's cluster view for /v1/stats and /metrics:
// every ring member in canonical order with health, ring share, and the
// forwarding counters this node accumulated against it.
func (c *Cluster) Stats() *api.ClusterStats {
	shares := c.ring.Shares()
	out := &api.ClusterStats{
		Self:   c.self,
		VNodes: c.ring.VNodes(),
		Peers:  make([]api.ClusterPeerStats, 0, len(c.ring.Peers())),
	}
	for _, addr := range c.ring.Peers() {
		st := api.ClusterPeerStats{
			Addr:        addr,
			Self:        addr == c.self,
			Healthy:     true,
			OwnedVNodes: shares[addr],
		}
		if ps := c.peers[addr]; ps != nil {
			st.Healthy = ps.healthy.Load()
			st.Forwards = ps.forwards.Load()
			st.ForwardErrors = ps.forwardErrors.Load()
			st.ForwardNs = ps.forwardNs.Load()
			st.Fallbacks = ps.fallbacks.Load()
			st.Probes = ps.probes.Load()
			st.ProbeFailures = ps.probeFailures.Load()
		}
		out.Peers = append(out.Peers, st)
	}
	sort.Slice(out.Peers, func(i, j int) bool { return out.Peers[i].Addr < out.Peers[j].Addr })
	return out
}
