package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// encodeFrame renders one frame to bytes.
func encodeFrame(ty Type, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, ty, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestEveryBitFlipDetected is the soundness core of the checksum: no
// single-bit corruption anywhere in an encoded frame may decode as a
// valid frame. (CRC-32 detects all single-bit errors over the region it
// covers; flips in the length prefix derail framing and fail on length,
// truncation, or checksum instead.)
func TestEveryBitFlipDetected(t *testing.T) {
	payload := AppendEvents(nil, []trace.Event{
		{T: 1, Op: trace.OpWrite, Targ: 7, Loc: 42},
		{T: 2, Op: trace.OpAcquire, Targ: 3, Loc: 9},
	})
	frame := encodeFrame(TEvents, payload)
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		_, _, err := ReadFrame(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at %d (byte %d) decoded as a valid frame", bit, bit/8)
		}
	}
}

func TestCorruptFrameClassified(t *testing.T) {
	frame := encodeFrame(TReport, []byte(`{"races":[]}`))
	// Flip a payload bit (past the 5-byte header) so framing survives and
	// the checksum is what catches it.
	mut := append([]byte(nil), frame...)
	mut[headerSize+3] ^= 0x10
	_, _, err := ReadFrame(bytes.NewReader(mut))
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("payload flip: got %v, want ErrCorruptFrame", err)
	}
}

// TestFaultConnCorruptionDetected drives frames through the fault
// injector's bit-flipping net.Conn wrapper and asserts the reader never
// sees a silently altered frame.
func TestFaultConnCorruptionDetected(t *testing.T) {
	payload := AppendEvents(nil, []trace.Event{{T: 5, Op: trace.OpRead, Targ: 1, Loc: 2}})
	// The flip lands in the frame's last two thirds: payload and checksum.
	flipAfter := int64(len(encodeFrame(TEvents, payload))) * 2 / 3
	for seed := uint64(1); seed <= 32; seed++ {
		cli, srv := net.Pipe()
		fc := fault.NewConnFaults(fault.ConnPlan{Seed: seed, FaultAfter: flipAfter}).Wrap(cli)
		go func() {
			WriteFrame(fc, TEvents, payload)
			cli.Close()
		}()
		ty, got, err := ReadFrame(srv)
		srv.Close()
		if err == nil && (ty != TEvents || !bytes.Equal(got, payload)) {
			t.Fatalf("seed %d: corrupted frame decoded as valid (%v, %d bytes)", seed, ty, len(got))
		}
		if err == nil {
			t.Fatalf("seed %d: flip injected but frame passed; injector broken?", seed)
		}
	}
}

// TestErrorPayloadRoundTrip covers the typed TError payload helpers: a
// payload without a code (pre-v2 plain text) decodes as internal, its text
// kept.
func TestErrorPayloadRoundTrip(t *testing.T) {
	e := DecodeError(EncodeError(CodeSuspended, "session s1 suspended"))
	if e.Code != CodeSuspended || e.Msg != "session s1 suspended" {
		t.Fatalf("round trip: %+v", e)
	}
	for _, raw := range []string{"plain text failure", `{"msg":"no code"}`, ""} {
		if got := DecodeError([]byte(raw)); got.Code != CodeInternal || got.Msg != raw {
			t.Fatalf("codeless payload %q decoded as %+v", raw, got)
		}
	}
	if got := e.Error(); got != "session s1 suspended [suspended]" {
		t.Fatalf("Error() = %q", got)
	}
}

// FuzzReadFrame: arbitrary bytes must never panic the reader or make it
// mis-frame; whatever decodes must re-encode to the same bytes consumed.
func FuzzReadFrame(f *testing.F) {
	f.Add(encodeFrame(TFlush, nil))
	f.Add(encodeFrame(TEvents, AppendEvents(nil, []trace.Event{{Op: trace.OpWrite, Targ: 1}})))
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		ty, payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		consumed := len(data) - r.Len()
		reenc := encodeFrame(ty, payload)
		if !bytes.Equal(reenc, data[:consumed]) {
			t.Fatalf("decoded frame does not re-encode to its input bytes")
		}
	})
}

// FuzzFrameCorruption: any single-bit flip of a valid frame must be
// rejected — this is the invariant racechaos leans on for the network
// fault schedule.
func FuzzFrameCorruption(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint32(3))
	f.Add([]byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, payload []byte, bitPos uint32) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, TEvents, payload); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		bit := int(bitPos) % (len(frame) * 8)
		frame[bit/8] ^= 1 << (bit % 8)
		if _, _, err := ReadFrame(bytes.NewReader(frame)); err == nil {
			t.Fatalf("single-bit flip at %d accepted", bit)
		}
	})
}
