package client

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"

	"stochsched/pkg/api"
)

// FuzzDecodeError: the error-envelope decoder never panics and keeps the
// status. An envelope the service emits decodes back to its status, code
// and message — the fidelity the service relies on when it relays a ring
// owner's rejection byte for byte. A body that is not a JSON object (a
// proxy's HTML page, a plain-text 404, anything malformed) comes back as
// its trimmed raw text with no code.
func FuzzDecodeError(f *testing.F) {
	f.Add(400, []byte(`{"error":{"code":"bad_request","message":"parsing request: unexpected EOF"}}`+"\n"), uint8(0), "unknown batch op \"teleport\"")
	f.Add(404, []byte("404 page not found\n"), uint8(1), "unknown sweep job")
	f.Add(502, []byte("<html><body>bad gateway</body></html>"), uint8(2), "")
	f.Add(400, []byte(`"the pre-v2 string form"`), uint8(3), "server overloaded: admission queue full")
	f.Add(429, []byte(`{"error":{}}`), uint8(4), "context deadline exceeded")
	f.Add(500, []byte(`{"error":null} `), uint8(5), "service: compute panicked: <nil>")
	f.Add(503, []byte(` {"error":{"code":"unavailable"}} trailing`), uint8(0), "é\t\"<&>\"")
	codes := []string{
		api.ErrCodeBadRequest, api.ErrCodeNotFound, api.ErrCodeMethodNotAllowed,
		api.ErrCodeOverloaded, api.ErrCodeUnavailable, api.ErrCodeInternal,
	}
	f.Fuzz(func(t *testing.T, status int, body []byte, pick uint8, msg string) {
		got := decodeError(status, body)
		if got.Status != status {
			t.Fatalf("decodeError(%d, %q) = %+v: status changed", status, body, *got)
		}
		text := strings.TrimSpace(string(body))
		if !strings.HasPrefix(text, "{") || !json.Valid(body) {
			if want := (APIError{Status: status, Message: text}); *got != want {
				t.Fatalf("decodeError(%d, %q) = %+v, want %+v", status, body, *got, want)
			}
		}

		// The envelope as the service's writeError encodes it. Its
		// messages are Go error texts over decoded JSON, so valid UTF-8;
		// JSON would replace any invalid byte.
		if !utf8.ValidString(msg) {
			return
		}
		code := codes[int(pick)%len(codes)]
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(api.ErrorResponse{Err: api.ErrorDetail{Code: code, Message: msg}}); err != nil {
			t.Fatal(err)
		}
		want := APIError{Status: status, Code: code, Message: msg}
		if got := decodeError(status, enc.Bytes()); *got != want {
			t.Fatalf("envelope %s decoded to %+v, want %+v", enc.Bytes(), *got, want)
		}
	})
}
