package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"stochsched/internal/obs"
	"stochsched/internal/sweep"
	"stochsched/pkg/client"
)

// This file is the serving layer's cluster integration: forward, the one
// routing decision every call makes in a ring (see call in server.go), and
// the snapshot/restore surface the daemon persists through
// internal/cluster.Store. The ring itself, the per-peer clients, and the
// health probing live in internal/cluster.

// forward routes one call on the ring by its cache key. When a healthy
// remote peer owns the key, it relays body to path there and returns the
// owner's answer: its response bytes, or the *client.APIError envelope it
// answered with (the owner did serve the call). A nil body with a nil
// error means "serve locally": a self-owned key, or an owner that is down
// — already marked (Route's degraded-mode fallback) or failing this very
// forward (Forward marks it). Local bytes equal the owner's; that is the
// determinism contract degraded mode rests on. Routing is by cache key,
// so calls that share a cached body also share an owner.
func (s *Server) forward(ctx context.Context, path, key string, body []byte) ([]byte, error) {
	sp := obs.CurrentSpan(ctx)
	d := s.cluster.Route(key)
	if d.Forward {
		fsp := sp.StartChild("forward")
		fsp.Annotate("peer", d.Peer)
		resp, err := s.cluster.Forward(ctx, d.Peer, path, body)
		fsp.End()
		if err == nil || errors.As(err, new(*client.APIError)) {
			return resp, err
		}
	}
	if d.Forward || d.Fallback {
		sp.Annotate("cluster", "fallback")
	}
	return nil, nil
}

// ---------------------------------------------------------------------------
// Snapshot / restore

// serverState is the on-disk payload internal/cluster.Store wraps in its
// versioned, checksummed envelope: the response cache and the sweep job
// store, the two stores whose loss makes a restart cold.
type serverState struct {
	SavedUnixNs int64               `json:"saved_unix_ns"`
	Cache       CacheSnapshot       `json:"cache"`
	Sweeps      sweep.StoreSnapshot `json:"sweeps"`
}

// SnapshotState encodes the server's durable state. Callable at any time;
// each store is captured under its own locks (per-store consistent, not
// globally atomic — fine for caches of pure functions).
func (s *Server) SnapshotState() ([]byte, error) {
	return json.Marshal(serverState{
		SavedUnixNs: time.Now().UnixNano(),
		Cache:       s.cache.Snapshot(),
		Sweeps:      s.sweeps.SnapshotStore(),
	})
}

// RestoreState decodes data (a SnapshotState payload) and installs it:
// cached responses become warm hits, terminal sweep jobs become fetchable
// again, and the eviction/lifetime counters resume. Live entries win over
// restored ones, so restoring into a serving node is safe (the daemon
// restores at boot, before readiness). It installs the whole payload or,
// on error, none of it.
func (s *Server) RestoreState(data []byte) error {
	var st serverState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("service: decoding state snapshot: %w", err)
	}
	if err := s.sweeps.RestoreStore(st.Sweeps); err != nil {
		return fmt.Errorf("service: restoring state snapshot: %w", err)
	}
	s.cache.Restore(st.Cache)
	return nil
}

// SetRestoring flips the /readyz restore gate: while true, readiness
// answers 503 so load balancers and cluster peers do not route to a node
// still cold-loading its snapshot. The daemon sets it around its boot
// restore; /healthz is unaffected (the process is alive throughout).
func (s *Server) SetRestoring(v bool) { s.restoring.Store(v) }
