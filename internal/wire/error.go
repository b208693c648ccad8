package wire

import (
	"encoding/json"
	"fmt"
)

// ErrCode classifies a server-reported failure machine-readably. Codes
// travel in TError frame payloads (and in the ErrorCodeHeader of HTTP
// admin responses), so clients, routers, and retry loops classify errors
// with typed checks instead of matching message substrings.
type ErrCode string

// The error-code vocabulary. What each code means, the HTTP status it maps
// to, what a client does about it and what happens to the session's journal
// are one row each of race/server's condition table (race/server/errors.go;
// the README's "Errors" section renders it) — nothing about a code is
// decided here.
const (
	CodeUnknownSession ErrCode = "unknown-session"
	CodeBusy           ErrCode = "busy"
	CodeSuspended      ErrCode = "suspended"
	CodeEvicted        ErrCode = "evicted"
	CodeDraining       ErrCode = "draining"
	CodeFull           ErrCode = "full"
	CodeShutdown       ErrCode = "shutdown"
	CodeClosed         ErrCode = "closed"
	CodeIDTaken        ErrCode = "id-taken"
	CodeIO             ErrCode = "io"
	CodeCorrupt        ErrCode = "corrupt"
	CodeProto          ErrCode = "proto"
	CodeTimeout        ErrCode = "timeout"
	CodeInternal       ErrCode = "internal"
)

// ErrorCodeHeader is the HTTP response header carrying an ErrCode on
// non-2xx admin API responses, the HTTP analogue of a typed TError frame.
const ErrorCodeHeader = "X-Raced-Error-Code"

// RemoteError is a decoded TError payload: a classification code plus the
// human-readable message. It is the error type wire clients surface.
type RemoteError struct {
	Code ErrCode `json:"code"`
	Msg  string  `json:"msg"`
}

func (e *RemoteError) Error() string {
	if e.Code == "" {
		return e.Msg
	}
	return fmt.Sprintf("%s [%s]", e.Msg, e.Code)
}

// EncodeError builds a TError frame payload.
func EncodeError(code ErrCode, msg string) []byte {
	b, err := json.Marshal(RemoteError{Code: code, Msg: msg})
	if err != nil {
		// Marshaling two strings cannot fail; keep the message on the
		// wire even if it somehow does.
		return []byte(msg)
	}
	return b
}

// DecodeError parses a TError payload. A v2 peer always sends a code, so a
// payload without one (undecodable, or hand-written text) is an internal
// failure of the peer with the raw payload kept as the message: no
// RemoteError leaves this package with an empty Code.
func DecodeError(payload []byte) *RemoteError {
	var e RemoteError
	if json.Unmarshal(payload, &e) != nil || e.Code == "" {
		return &RemoteError{Code: CodeInternal, Msg: string(payload)}
	}
	return &e
}
