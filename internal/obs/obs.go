// Package obs is the service's zero-dependency observability substrate:
// process-unique request IDs, a lightweight span recorder propagated
// through context.Context, and a bounded ring buffer retaining the last N
// request traces for GET /v1/trace/{id}.
//
// The design constraints, in order:
//
//   - Determinism first: tracing must never perturb response bodies. Spans
//     carry wall-clock timings and string attributes only; nothing on the
//     request path reads them back into a computation.
//   - Cheap when off, cheap when on: every entry point is nil-safe — a
//     context without a trace yields nil spans whose methods no-op, so
//     instrumented code needs no conditionals, and an enabled span costs
//     two time.Now calls and one small allocation.
//   - Safe under fan-out: one trace may grow concurrently (batch items add
//     sibling spans from worker goroutines), so a single per-trace mutex
//     guards the whole span tree. Contention is bounded by the request's
//     own parallelism.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stochsched/pkg/api"
)

// idPrefix makes request IDs unique across restarts (the counter alone
// would collide after a restart, aliasing old traces to new requests).
var idPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err == nil {
		return hex.EncodeToString(b[:])
	}
	return fmt.Sprintf("%08x", uint32(time.Now().UnixNano()))
}()

var idSeq atomic.Uint64

// NewRequestID returns a process-unique request identifier. IDs are opaque;
// only their uniqueness is contractual. Hand-formatted (one allocation):
// this runs once per request on the serving hot path.
func NewRequestID() string {
	var hexBuf [16]byte
	h := strconv.AppendUint(hexBuf[:0], idSeq.Add(1), 16)
	var idBuf [32]byte
	buf := append(idBuf[:0], "r-"...)
	buf = append(buf, idPrefix...)
	buf = append(buf, '-')
	for i := len(h); i < 6; i++ {
		buf = append(buf, '0')
	}
	buf = append(buf, h...)
	return string(buf)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Span is one timed stage of a request. Construct via Trace root or
// Start/StartChild; a nil *Span is valid and every method no-ops, which is
// how instrumented code stays branch-free when tracing is absent.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// StartChild opens a sub-span under s. Spans come from a small per-trace
// arena while it lasts (one trace allocation amortizes the typical
// request's span tree) and fall back to the heap for deep trees.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	t := s.tr
	t.mu.Lock()
	var c *Span
	if t.arenaN < len(t.arena) {
		c = &t.arena[t.arenaN]
		t.arenaN++
		c.tr, c.name, c.start = t, name, now
	} else {
		c = &Span{tr: t, name: name, start: now}
	}
	s.children = append(s.children, c)
	t.mu.Unlock()
	return c
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// Annotate sets a string attribute, replacing an earlier value for the
// same key.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Attr returns the value annotated under key ("" when absent or s is nil).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is one request's span tree, rooted at the synthetic "request" span.
// The root span, a span arena, and the root's attribute/children backing
// arrays live inline so the whole tree for a typical request is one
// allocation.
type Trace struct {
	id    string
	start time.Time

	mu   sync.Mutex
	end  time.Time
	root *Span

	rootSpan Span
	arena    [3]Span // the hit path: parse, cache, write (misses overflow
	// to the heap, where compute dominates the span cost anyway)
	arenaN    int
	rootKids  [3]*Span // parse, cache, write
	rootAttrs [4]Attr  // endpoint, kind, spec_hash, outcome
}

// NewTrace starts a trace identified by id, with the root span open.
func NewTrace(id string) *Trace {
	t := &Trace{id: id, start: time.Now()}
	t.rootSpan = Span{tr: t, name: "request", start: t.start}
	t.rootSpan.children = t.rootKids[:0]
	t.rootSpan.attrs = t.rootAttrs[:0]
	t.root = &t.rootSpan
	return t
}

// ID returns the trace's request id ("" for a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish closes the root span and marks the trace complete. Spans still
// open afterwards (a singleflight computation outliving its initiating
// request) keep recording; snapshots report them as running.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	t.mu.Unlock()
}

// Snapshot renders the trace into its wire shape. Safe to call while spans
// are still being recorded; unfinished spans report the duration observed
// so far and running=true.
func (t *Trace) Snapshot() *api.TraceResponse {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	end := t.end
	complete := !end.IsZero()
	if !complete {
		end = now
	}
	return &api.TraceResponse{
		RequestID:   t.id,
		StartUnixNs: t.start.UnixNano(),
		DurationNs:  end.Sub(t.start).Nanoseconds(),
		Complete:    complete,
		Root:        t.snapshotSpanLocked(t.root, now),
	}
}

// snapshotSpanLocked renders one span subtree. Callers hold t.mu.
func (t *Trace) snapshotSpanLocked(s *Span, now time.Time) api.Span {
	out := api.Span{
		Name:    s.name,
		StartNs: s.start.Sub(t.start).Nanoseconds(),
	}
	end := s.end
	if end.IsZero() {
		out.Running = true
		end = now
	}
	out.DurationNs = end.Sub(s.start).Nanoseconds()
	if len(s.attrs) > 0 {
		out.Attrs = make([]api.SpanAttr, len(s.attrs))
		for i, a := range s.attrs {
			out.Attrs[i] = api.SpanAttr{Key: a.Key, Value: a.Value}
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, t.snapshotSpanLocked(c, now))
	}
	return out
}

// ---------------------------------------------------------------------------
// Context propagation.

type spanKey struct{}

// WithTrace returns ctx carrying tr, with the current span set to its root.
// Only the span is stored (it links back to its trace), so entering a trace
// costs one context allocation.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, tr.root)
}

// WithSpan returns ctx with the current span set to sp, under which
// subsequent Start calls nest. A nil sp returns ctx unchanged.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the trace carried by ctx (nil when absent).
func FromContext(ctx context.Context) *Trace {
	if sp, _ := ctx.Value(spanKey{}).(*Span); sp != nil {
		return sp.tr
	}
	return nil
}

// RootSpan returns the root span of ctx's trace (nil when untraced) —
// the span handlers annotate with request-level facts (endpoint, scenario
// kind, spec hash, cache outcome) for the trace view and the access log.
func RootSpan(ctx context.Context) *Span {
	return FromContext(ctx).Root()
}

// CurrentSpan returns ctx's current span — the trace root in a request
// handler, or the span Start last entered — and nil when ctx is untraced.
// Opening children on it directly (StartChild) costs no context
// allocation.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Start opens a child of ctx's current span and returns a context whose
// current span is the new one. Without a trace in ctx it returns ctx
// unchanged and a nil span — zero allocation on the untraced path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := CurrentSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.StartChild(name)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// ---------------------------------------------------------------------------
// Recorder: the bounded ring of recently completed traces.

// Recorder retains the last N traces by request id. Safe for concurrent
// use. A zero-capacity recorder drops everything (tracing disabled).
type Recorder struct {
	mu   sync.Mutex
	cap  int
	byID map[string]*Trace
	ring []string // request ids in insertion order, circular
	next int
}

// NewRecorder returns a recorder retaining up to n traces (n <= 0 retains
// none).
func NewRecorder(n int) *Recorder {
	if n < 0 {
		n = 0
	}
	return &Recorder{cap: n, byID: make(map[string]*Trace, n)}
}

// Add retains tr, evicting the oldest retained trace beyond capacity.
func (r *Recorder) Add(tr *Trace) {
	if r.cap == 0 || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < r.cap {
		r.ring = append(r.ring, tr.ID())
	} else {
		delete(r.byID, r.ring[r.next])
		r.ring[r.next] = tr.ID()
		r.next = (r.next + 1) % r.cap
	}
	r.byID[tr.ID()] = tr
}

// Get returns the retained trace with the given request id.
func (r *Recorder) Get(id string) (*Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr, ok := r.byID[id]
	return tr, ok
}

// Len returns the number of retained traces.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.byID)
}
