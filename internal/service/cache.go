package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"stochsched/internal/obs"
	"stochsched/pkg/api"
)

// Outcome classifies how a cache lookup was served.
type Outcome int

const (
	// Miss: this request computed the value.
	Miss Outcome = iota
	// Hit: the value was already cached.
	Hit
	// Dedup: an identical request was in flight; this one waited for its
	// result instead of recomputing (singleflight).
	Dedup
)

// Cache is a sharded in-memory memoization cache keyed by spec hash. Each
// shard holds its own lock and map, so concurrent requests for different
// keys rarely contend. Lookups of a key whose computation is in flight wait
// for that computation instead of duplicating it, and every waiter receives
// the same byte slice — which is what keeps identical concurrent requests
// byte-identical and the compute cost per distinct spec at exactly one.
//
// Eviction is per shard and deliberately simple: when a shard exceeds its
// entry budget, an arbitrary completed entry is dropped. The workload is
// memoization of pure functions, so eviction only costs a recompute.
//
// Beside the entries, each shard holds part of the body memo: each raw
// request body that was parsed and then served as a hit, identified by its
// op path and SHA-256, mapped to the cache key and kind it parsed to (see
// Server.answer). The memo shares the shard locks and the per-shard
// budget, but it is not cached content: snapshots, Len and Stats leave it
// out.
type Cache struct {
	shards []cacheShard
	// perShard is the completed-entry budget of each shard (0 = unbounded),
	// and separately the memo budget of each shard (see remember).
	perShard int
}

// defaultEntriesPerShard is the per-shard budget a zero Config gets.
const defaultEntriesPerShard = 256

type cacheShard struct {
	mu        sync.Mutex
	m         map[string]*cacheEntry
	memo      map[memoKey]memoEntry
	evictions int64
}

// memoKey identifies a raw request body by its op path and its SHA-256.
// The cache key itself is a SHA-256 of the canonical encoding, so the memo
// rests on the same collision assumption.
type memoKey struct {
	path string
	sum  [sha256.Size]byte
}

// memoEntry is what a memoized body parsed to. The spec hash is the key's
// suffix after its last ':'.
type memoEntry struct {
	key, kind string
}

type cacheEntry struct {
	done chan struct{} // closed once body/err are set
	body []byte
	err  error
}

// NewCache returns a cache with the given shard count (rounded up to 1) and
// per-shard completed-entry budget (0 = unbounded).
func NewCache(shards, entriesPerShard int) *Cache {
	if shards < 1 {
		shards = 1
	}
	c := &Cache{shards: make([]cacheShard, shards), perShard: entriesPerShard}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*cacheEntry)
		c.shards[i].memo = make(map[memoKey]memoEntry)
	}
	return c
}

// shard maps a key to its shard with FNV-1a.
func (c *Cache) shard(key string) *cacheShard {
	var x uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		x ^= uint64(key[i])
		x *= 1099511628211
	}
	return &c.shards[x%uint64(len(c.shards))]
}

// memoShard maps a memo key to its shard; the body's SHA-256 is already
// uniform, so its first eight bytes pick the shard.
func (c *Cache) memoShard(d memoKey) *cacheShard {
	return &c.shards[binary.LittleEndian.Uint64(d.sum[:8])%uint64(len(c.shards))]
}

// recall returns what a memoized body parsed to.
func (c *Cache) recall(d memoKey) (memoEntry, bool) {
	sh := c.memoShard(d)
	sh.mu.Lock()
	e, ok := sh.memo[d]
	sh.mu.Unlock()
	return e, ok
}

// remember records what a body parsed to, dropping an arbitrary memo
// entry of the shard when it is at its budget. An unbounded cache grows
// only by admitted computes, while each variant of a cached body costs
// only a parse, so its memo keeps to the shard's entry count, or to
// defaultEntriesPerShard while the shard holds fewer.
func (c *Cache) remember(d memoKey, e memoEntry) {
	sh := c.memoShard(d)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	budget := c.perShard
	if budget <= 0 {
		budget = max(len(sh.m), defaultEntriesPerShard)
	}
	if len(sh.memo) >= budget {
		for k := range sh.memo {
			delete(sh.memo, k)
			break
		}
	}
	sh.memo[d] = e
}

// Do returns the cached body for key, computing it with compute on a miss.
// Concurrent calls with the same key are deduplicated: exactly one runs
// compute, the rest wait and share its result. A failed computation is not
// cached (waiters observe the error; later calls retry). ctx carries the
// caller's trace, if any: a singleflight join records the time parked on
// the in-flight computation as a "singleflight_wait" span. ctx does NOT
// cancel the wait — the computation is shared, and it completes promptly
// for whichever caller initiated it.
func (c *Cache) Do(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, Outcome, error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e, ok := sh.m[key]; ok {
		sh.mu.Unlock()
		select {
		case <-e.done:
			return e.body, Hit, e.err
		default:
		}
		_, sp := obs.Start(ctx, "singleflight_wait")
		<-e.done
		sp.End()
		return e.body, Dedup, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	sh.m[key] = e
	sh.mu.Unlock()

	run(sh, key, e, compute)
	if e.err != nil {
		return nil, Miss, e.err
	}
	if c.perShard > 0 {
		sh.evictOver(c.perShard)
	}
	return e.body, Miss, nil
}

// run executes compute and publishes its result on e. The entry is always
// completed (done closed) and failed entries always unpublished, even when
// compute panics — otherwise the panicked key would block every future
// request for it forever. The panic surfaces as an error to the leader and
// all waiters.
func run(sh *cacheShard, key string, e *cacheEntry, compute func() ([]byte, error)) {
	defer func() {
		if r := recover(); r != nil {
			e.body, e.err = nil, fmt.Errorf("service: compute panicked: %v", r)
		}
		close(e.done)
		if e.err != nil {
			sh.mu.Lock()
			delete(sh.m, key)
			sh.mu.Unlock()
		}
	}()
	e.body, e.err = compute()
}

// evictOver drops arbitrary completed entries until the shard is within
// budget. In-flight entries are never dropped (their waiters hold them).
func (sh *cacheShard) evictOver(budget int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for k, e := range sh.m {
		if len(sh.m) <= budget {
			break
		}
		select {
		case <-e.done:
			delete(sh.m, k)
			sh.evictions++
		default:
		}
	}
}

// Len returns the total number of entries (including in-flight ones).
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		total += len(sh.m)
		sh.mu.Unlock()
	}
	return total
}

// ---------------------------------------------------------------------------
// Snapshot / restore (the durability layer — see internal/cluster.Store)

// CacheEntrySnapshot is one completed entry's durable form. Body is the
// exact cached response bytes, so a restored hit is byte-identical to the
// hit the entry served before the restart.
type CacheEntrySnapshot struct {
	Key  string `json:"key"`
	Body []byte `json:"body"`
}

// CacheSnapshot is the cache's durable form: every completed entry plus
// the cumulative eviction count, so the /v1/stats eviction counter
// survives restarts along with the entries themselves.
type CacheSnapshot struct {
	Entries   []CacheEntrySnapshot `json:"entries"`
	Evictions int64                `json:"evictions"`
}

// Snapshot captures every completed entry, sorted by key so the encoded
// snapshot is deterministic for a given cache content. In-flight entries
// are skipped — their computation belongs to the live process — and failed
// entries never exist (run unpublishes them).
func (c *Cache) Snapshot() CacheSnapshot {
	var snap CacheSnapshot
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		snap.Evictions += sh.evictions
		for k, e := range sh.m {
			select {
			case <-e.done:
				snap.Entries = append(snap.Entries, CacheEntrySnapshot{Key: k, Body: e.body})
			default:
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].Key < snap.Entries[j].Key })
	return snap
}

// Restore installs a snapshot's entries as completed cache entries,
// skipping keys already present (live entries win) and silently dropping
// entries beyond a shard's budget — a restore must not blow the memory
// bound, and dropping an arbitrary completed entry is exactly the
// eviction policy (without billing the eviction counter, since nothing
// was ever resident). The snapshot's eviction count is credited to shard
// 0 — per-shard attribution is not preserved, but api.CacheStats only
// ever sums evictions, so the restored view is indistinguishable.
func (c *Cache) Restore(snap CacheSnapshot) {
	for _, ent := range snap.Entries {
		sh := c.shard(ent.Key)
		e := &cacheEntry{done: make(chan struct{}), body: ent.Body}
		close(e.done)
		sh.mu.Lock()
		_, exists := sh.m[ent.Key]
		if !exists && (c.perShard <= 0 || len(sh.m) < c.perShard) {
			sh.m[ent.Key] = e
		}
		sh.mu.Unlock()
	}
	sh := &c.shards[0]
	sh.mu.Lock()
	sh.evictions += snap.Evictions
	sh.mu.Unlock()
}

// Stats gathers per-shard counters. Shards are locked one at a time, so the
// view is per-shard consistent, not globally atomic.
func (c *Cache) Stats() api.CacheStats {
	st := api.CacheStats{ShardEntries: make([]int, len(c.shards))}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.ShardEntries[i] = len(sh.m)
		st.Entries += len(sh.m)
		st.Evictions += sh.evictions
		sh.mu.Unlock()
	}
	return st
}
