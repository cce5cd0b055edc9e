package api

import "fmt"

// ---------------------------------------------------------------------------
// The JSON error envelope shared by every endpoint:
//
//	{"error": {"code": "bad_request", "message": "…"}}
//
// Machine-readable error codes.
const (
	ErrCodeBadRequest       = "bad_request"        // 400: malformed JSON, invalid spec, out-of-range knob, over-budget work
	ErrCodeNotFound         = "not_found"          // 404: unknown sweep job id
	ErrCodeMethodNotAllowed = "method_not_allowed" // 405: wrong HTTP method (Allow header lists the right ones)
	ErrCodeOverloaded       = "overloaded"         // 429: admission queue or job store full — retry with backoff
	ErrCodeUnavailable      = "unavailable"        // 503: computation cancelled or timed out server-side
	ErrCodeInternal         = "internal"           // 500: unexpected server failure
)

// ErrorDetail is the code/message pair inside an error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements error.
func (e *ErrorDetail) Error() string {
	if e.Code == "" {
		return e.Message
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorResponse is the error envelope every non-2xx response carries.
type ErrorResponse struct {
	Err ErrorDetail `json:"error"`
}
