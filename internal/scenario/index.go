package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Indexer is the optional analytic capability of a Scenario: closed-form
// index/priority computation for the kind, served by POST /v1/index. A
// scenario that implements it becomes index-servable with no serving-layer
// edits — the same registry-resolution contract Simulate has.
//
// Unlike Simulate, index computation takes no seed, replications, or pool:
// it is deterministic linear algebra, so the result is a pure function of
// the payload alone.
type Indexer interface {
	// IndexFamily returns the cache-key namespace of the kind's index
	// ("gittins", "whittle", "priority", or the kind name). It prefixes
	// the family:hash cache key that ring routing and state snapshots are
	// keyed on, so it must not change for a kind once served.
	IndexFamily() string

	// ParseIndexPayload strictly decodes the kind's index payload (unknown
	// fields are errors). The payload shape is index-specific — e.g. the
	// bandit kind simulates a BanditSim but indexes a bare Bandit project.
	ParseIndexPayload(raw json.RawMessage) (any, error)

	// IndexHash returns the canonical spec hash of a parsed payload — the
	// memoization key suffix and the spec_hash echoed in the response. The
	// encoding is fixed per kind (e.g. the mg1/batch hash covers an
	// api.PriorityRequest envelope), so golden response bodies stay stable.
	IndexHash(payload any) string

	// ComputeIndex fully validates the payload and computes the response
	// value (a pointer to one of pkg/api's index response types), echoing
	// hash — the caller's memoized IndexHash of the same payload — as the
	// response's spec_hash so it is computed exactly once per request.
	// Spec errors are wrapped in BadSpec.
	ComputeIndex(payload any, hash string) (any, error)
}

// IndexRequest is a parsed /v1/index request: the kind plus the resolved
// scenario, its index capability, and the typed payload.
type IndexRequest struct {
	Kind     string
	Scenario Scenario
	Indexer  Indexer
	Payload  any

	hash string // memoized Hash()
}

// Hash returns the canonical spec hash of the request (see
// Indexer.IndexHash).
func (r *IndexRequest) Hash() string {
	if r.hash == "" {
		r.hash = r.Indexer.IndexHash(r.Payload)
	}
	return r.hash
}

// Family returns the request's cache-key namespace (see
// Indexer.IndexFamily).
func (r *IndexRequest) Family() string { return r.Indexer.IndexFamily() }

// Compute runs the index computation on the parsed payload.
func (r *IndexRequest) Compute() (any, error) { return r.Indexer.ComputeIndex(r.Payload, r.Hash()) }

// ParseIndexRequest strictly decodes a /v1/index body: a kind field plus
// exactly one payload field named after the kind, dispatched through the
// scenario registry — the same envelope contract as /v1/simulate.
func ParseIndexRequest(body []byte) (*IndexRequest, error) {
	fields, err := parseFields(body)
	if err != nil {
		return nil, err
	}
	var kind string
	if err := fields.take("kind", &kind); err != nil {
		return nil, err
	}
	sc, ok := Lookup(kind)
	if !ok {
		return nil, fmt.Errorf("unknown index kind %q (want %s)", kind, strings.Join(IndexKinds(), ", "))
	}
	idx, ok := sc.(Indexer)
	if !ok {
		return nil, fmt.Errorf("kind %q has no analytic index (want %s)", kind, strings.Join(IndexKinds(), ", "))
	}
	raw, err := fields.popPayload(kind)
	if err != nil {
		return nil, err
	}
	payload, err := idx.ParseIndexPayload(raw)
	if err != nil {
		return nil, err
	}
	return &IndexRequest{Kind: kind, Scenario: sc, Indexer: idx, Payload: payload}, nil
}

// IndexKinds returns every registered kind that carries the index
// capability, sorted.
func IndexKinds() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k, sc := range registry {
		if _, ok := sc.(Indexer); ok {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
