package client

import (
	"bytes"
	"io"
	"net/http"
)

// InProcessDoer returns the Doer NewInProcess mounts: h invoked directly,
// no sockets. Exported for callers that need to wrap the transport (e.g.
// to inspect response headers) while keeping the in-process path.
func InProcessDoer(h http.Handler) Doer { return handlerTransport{h} }

// handlerTransport satisfies Doer by invoking an http.Handler directly —
// no listener, no sockets, no ports. It is the CLI's transport: the exact
// handler the daemon would mount, called in-process, so responses (and
// their bytes) are identical to real HTTP traffic.
type handlerTransport struct {
	h http.Handler
}

func (t handlerTransport) Do(req *http.Request) (*http.Response, error) {
	rec := &responseRecorder{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	return &http.Response{
		Status:        http.StatusText(rec.code),
		StatusCode:    rec.code,
		Proto:         req.Proto,
		ProtoMajor:    req.ProtoMajor,
		ProtoMinor:    req.ProtoMinor,
		Header:        rec.header,
		Body:          io.NopCloser(bytes.NewReader(rec.body.Bytes())),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}

// responseRecorder is a minimal in-memory http.ResponseWriter (a local
// stand-in for httptest.ResponseRecorder, so non-test binaries do not
// import net/http/httptest).
type responseRecorder struct {
	header http.Header
	code   int
	wrote  bool
	body   bytes.Buffer
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
}

func (r *responseRecorder) Write(p []byte) (int, error) {
	r.wrote = true
	return r.body.Write(p)
}
