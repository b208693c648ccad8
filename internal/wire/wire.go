// Package wire implements the framed transport of the raced trace-ingestion
// protocol: a thin session layer over the binary event encoding of package
// trace, designed so an instrumented program (or a replayed trace file) can
// stream events to a remote detector fleet over one TCP connection.
//
// Every frame is length-prefixed and checksummed:
//
//	length u32 LE (payload bytes) | type u8 | payload | crc u32 LE
//
// The trailing CRC-32 (IEEE) covers the type byte and the payload. It is
// what makes the stack's "byte-identical or loud error" invariant hold on a
// dirty network: without it a single flipped bit inside an Events payload
// can decode as a different-but-valid event record and silently change the
// final report. A checksum mismatch fails ReadFrame with ErrCorruptFrame
// and both sides treat the connection as dead (clients reconnect and resume
// from the last acked offset).
//
// A connection carries exactly one session:
//
//	client                                server
//	------                                ------
//	Hello {proto, session config}  ─────▶
//	                               ◀─────  Ack {session id}   (or Error)
//	Events [n × 12-byte records]   ─────▶                     (repeated)
//	Flush                          ─────▶
//	                               ◀─────  FlushAck {fed}     (or Error)
//	EOF                            ─────▶
//	                               ◀─────  Report {report JSON} (or Error)
//
// Event payloads reuse trace.PutRecord/GetRecord, so an Events frame body is
// byte-compatible with the record section of a binary trace file (and of a
// racelog segment). Flush is the sync barrier: its acknowledgment means
// every event sent before it has been applied to the session's analyses —
// and, on a durable server, journaled and synced to disk (any ingestion
// error is reported). EOF is the graceful end of stream; the server replies
// with the final report and both sides close. Error frames carry a typed
// code (ErrCode) and a human-readable message, and terminate the session;
// what each code obliges either side to do is race/server's condition table
// (race/server/errors.go, rendered in the README's "Errors" section).
//
// A Hello may instead name an existing durable session to re-attach to
// ({proto, resume: id}); the Ack then carries the accepted event offset the
// client resumes sending from. Payload shapes live in race/server
// (HelloPayload, AckPayload, FlushPayload, FlushAckPayload).
//
// A router fronting several servers may answer any client frame with
// Redirect instead: the session's backend is being handed off (drain,
// migration, crash recovery), and the client should reconnect and resume the
// same session id — the new Ack's offset tells it where to pick up. Redirect
// is advisory; a client that instead reconnects on a dropped connection
// observes the same protocol.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/trace"
)

// Proto is the wire protocol version carried in the Hello frame.
// Version 2 added the per-frame CRC trailer and typed error codes.
const Proto = 2

// ErrCorruptFrame reports a frame whose checksum did not match its bytes.
// The connection it arrived on is unusable (framing can no longer be
// trusted); clients reconnect and resume.
var ErrCorruptFrame = errors.New("wire: corrupt frame (checksum mismatch)")

// Type identifies a frame.
type Type uint8

// Frame types. Client-to-server: Hello, Events, Flush, EOF. Server-to-
// client: Ack, FlushAck, Report, Error, Redirect (router only).
const (
	THello Type = iota + 1
	TAck
	TEvents
	TFlush
	TFlushAck
	TEOF
	TReport
	TError
	TRedirect
)

var typeNames = map[Type]string{
	THello: "hello", TAck: "ack", TEvents: "events", TFlush: "flush",
	TFlushAck: "flush-ack", TEOF: "eof", TReport: "report", TError: "error",
	TRedirect: "redirect",
}

// String returns the frame type's mnemonic.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// MaxPayload bounds a frame's payload so a corrupt or hostile length prefix
// cannot make a reader allocate unboundedly. At 12 bytes per event record an
// Events frame holds up to ~1.4M events — far above any sane batch.
const MaxPayload = 16 << 20

// MaxFrameEvents is the largest event count a single Events frame can
// carry; senders with bigger runs chunk them across frames.
const MaxFrameEvents = MaxPayload / trace.RecordSize

const (
	headerSize  = 5 // u32 length + u8 type
	trailerSize = 4 // u32 CRC-32 (IEEE) over type byte + payload
)

// typeCRC starts a frame's trailer checksum: the CRC of its type byte, which
// the payload bytes are then folded into (crc32.Update), whole or a window
// at a time. It is crc32.ChecksumIEEE([]byte{t}) spelled as the one table
// step it is, because a slice handed to hash/crc32 escapes to the heap.
func typeCRC(t Type) uint32 {
	return ^(crc32.IEEETable[^uint8(t)] ^ 0x00FFFFFF)
}

// putHeader encodes a frame header into hdr (headerSize bytes), refusing a
// payload over the limit.
func putHeader(hdr []byte, t Type, n int) error {
	if n > MaxPayload {
		return fmt.Errorf("wire: %v payload of %d bytes exceeds limit %d", t, n, MaxPayload)
	}
	binary.LittleEndian.PutUint32(hdr[0:], uint32(n))
	hdr[4] = uint8(t)
	return nil
}

// parseHeader decodes a frame header, refusing a declared payload over the
// limit.
func parseHeader(hdr []byte) (Type, int, error) {
	n := binary.LittleEndian.Uint32(hdr[0:])
	t := Type(hdr[4])
	if n > MaxPayload {
		return 0, 0, fmt.Errorf("wire: %v frame declares %d payload bytes (limit %d)", t, n, MaxPayload)
	}
	return t, int(n), nil
}

// checkTrailer compares a frame's trailer bytes with crc, the sum of the
// type byte and payload the reader saw.
func checkTrailer(t Type, tail []byte, crc uint32) error {
	if got := binary.LittleEndian.Uint32(tail); got != crc {
		return fmt.Errorf("wire: %v frame: %w (crc %08x, want %08x)", t, ErrCorruptFrame, got, crc)
	}
	return nil
}

// WriteFrame writes one frame. Writers typically wrap w in a bufio.Writer
// and flush at message boundaries (after Hello, Flush, EOF, and responses).
func WriteFrame(w io.Writer, t Type, payload []byte) error {
	var hdr [headerSize]byte
	if err := putHeader(hdr[:], t, len(payload)); err != nil {
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	var tail [trailerSize]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Update(typeCRC(t), crc32.IEEETable, payload))
	_, err := w.Write(tail[:])
	return err
}

// ReadFrame reads one frame, returning its type and payload. io.EOF is
// returned untouched on a clean end between frames; a partial frame is an
// io.ErrUnexpectedEOF-wrapping error; a checksum mismatch is an
// ErrCorruptFrame-wrapping error. It reads exactly the frame's bytes from r
// into a fresh buffer; loops that serve a connection read through its
// bufio.Reader with ReadHeader and ReadBody or ReadEvents instead.
func ReadFrame(r io.Reader) (Type, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	t, n, err := parseHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	payload, err := ReadBody(r, t, n, nil)
	return t, payload, err
}

// ReadBody reads the n-byte payload and the trailer of a frame whose header
// has been read, into buf's storage (grown when too small, so a caller that
// passes the previous result back reads frame after frame into one buffer),
// and returns the payload once its checksum has verified.
func ReadBody(r io.Reader, t Type, n int, buf []byte) ([]byte, error) {
	if cap(buf) < n+trailerSize {
		buf = make([]byte, n+trailerSize)
	}
	buf = buf[:n+trailerSize]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			// The stream ended mid-frame, not between frames.
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading %v payload: %w", t, err)
	}
	if err := checkTrailer(t, buf[n:], crc32.Update(typeCRC(t), crc32.IEEETable, buf[:n])); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// The functions below are the allocation-free streaming form of the same
// framing, over a connection's bufio.Reader and bufio.Writer: small fields
// are parsed and built in the buffers themselves (Peek, AvailableBuffer).

// reserve returns n bytes of bw's free buffer space, flushing first when
// less is free, to be filled in place and committed with bw.Write.
func reserve(bw *bufio.Writer, n int) ([]byte, error) {
	if bw.Available() < n {
		if err := bw.Flush(); err != nil {
			return nil, err
		}
		if bw.Available() < n {
			return nil, fmt.Errorf("wire: writer buffer of %d bytes is smaller than a frame header", bw.Size())
		}
	}
	return bw.AvailableBuffer()[:n], nil
}

// WriteEvents writes evs as one Events frame — the same bytes as
// WriteFrame(TEvents, AppendEvents(nil, evs)) — without building the
// payload: records are encoded straight into bw's buffer and checksummed a
// window at a time (trace.WriteRecords). evs must fit one frame
// (MaxFrameEvents).
func WriteEvents(bw *bufio.Writer, evs []trace.Event) error {
	hdr, err := reserve(bw, headerSize)
	if err == nil {
		err = putHeader(hdr, TEvents, len(evs)*trace.RecordSize)
	}
	if err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	crc := typeCRC(TEvents)
	if err := trace.WriteRecords(bw, evs, &crc); err != nil {
		return err
	}
	tail, err := reserve(bw, trailerSize)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(tail, crc)
	_, err = bw.Write(tail)
	return err
}

// ReadHeader reads a frame's header: its type and payload length. io.EOF is
// returned untouched on a clean end between frames. The body must then be
// consumed with ReadBody or, for an Events frame, ReadEvents.
func ReadHeader(br *bufio.Reader) (Type, int, error) {
	hdr, err := br.Peek(headerSize)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return 0, 0, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, fmt.Errorf("wire: reading frame header: %w", err)
	}
	t, n, err := parseHeader(hdr)
	br.Discard(headerSize)
	return t, n, err
}

// ReadEvents reads the body of an Events frame whose header declared n
// payload bytes, decoding it out of br's buffer a window at a time
// (trace.ReadRecords) into dst's storage — no payload buffer exists. It
// accepts exactly the frames ReadFrame + DecodeEvents accept and fails the
// same way: a short stream or checksum mismatch (ErrCorruptFrame) first,
// then a trace.ErrBadRecords-wrapping error for a ragged payload or an
// invalid op. The events are returned only once the trailer has verified;
// on any error the result is nil, whatever dst's storage now holds.
func ReadEvents(br *bufio.Reader, n int, dst []trace.Event) ([]trace.Event, error) {
	count := n / trace.RecordSize
	if cap(dst) < count {
		dst = make([]trace.Event, count)
	}
	dst = dst[:count]
	crc := typeCRC(TEvents)
	var bad error
	_, i, err := trace.ReadRecords(br, dst, &crc)
	if i >= 0 {
		bad = trace.BadRecord(i, dst[i].Op)
	}
	if rem := n % trace.RecordSize; rem != 0 && err == nil {
		var ragged []byte
		if ragged, err = br.Peek(rem); err == nil {
			crc = crc32.Update(crc, crc32.IEEETable, ragged)
			br.Discard(rem)
			bad = trace.RaggedRecords(n)
		}
	}
	var tail []byte
	if err == nil {
		tail, err = br.Peek(trailerSize)
	}
	if err != nil {
		if err == io.EOF {
			// The stream ended mid-frame, not between frames.
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: reading %v payload: %w", TEvents, err)
	}
	err = checkTrailer(TEvents, tail, crc)
	br.Discard(trailerSize)
	if err != nil {
		return nil, err
	}
	if bad != nil {
		return nil, fmt.Errorf("wire: events payload: %w", bad)
	}
	return dst, nil
}

// AppendEvents appends the wire encoding of evs to dst and returns the
// extended slice — the payload of an Events frame.
func AppendEvents(dst []byte, evs []trace.Event) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, len(evs)*trace.RecordSize)...)
	trace.PutRecords(dst[off:], evs)
	return dst
}

// DecodeEvents parses an Events frame payload.
func DecodeEvents(payload []byte) ([]trace.Event, error) {
	if len(payload)%trace.RecordSize != 0 {
		return nil, fmt.Errorf("wire: events payload: %w", trace.RaggedRecords(len(payload)))
	}
	evs := make([]trace.Event, len(payload)/trace.RecordSize)
	if i := trace.GetRecords(evs, payload); i >= 0 {
		return nil, fmt.Errorf("wire: events payload: %w", trace.BadRecord(i, evs[i].Op))
	}
	return evs, nil
}
