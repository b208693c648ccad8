package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/trace"
)

// eventsOf reads data as event records with every op forced valid.
func eventsOf(data []byte) []trace.Event {
	evs := make([]trace.Event, len(data)/trace.RecordSize)
	trace.GetRecords(evs, data)
	for i := range evs {
		evs[i].Op %= trace.OpClassAccess + 1
	}
	return evs
}

// readStreaming reads one frame the way a connection loop does: header,
// then ReadEvents into slab for an Events frame or ReadBody otherwise.
func readStreaming(br *bufio.Reader, slab []trace.Event) (Type, []byte, []trace.Event, error) {
	t, n, err := ReadHeader(br)
	if err != nil {
		return 0, nil, nil, err
	}
	if t == TEvents {
		evs, err := ReadEvents(br, n, slab)
		return t, nil, evs, err
	}
	payload, err := ReadBody(br, t, n, nil)
	return t, payload, nil, err
}

// FuzzEventsFrame is the differential test of the windowed Events codec
// against the whole-payload one. WriteEvents must produce the bytes of
// AppendEvents+WriteFrame; and on a frame damaged any of five ways the
// streaming reader must accept, reject and classify exactly as
// ReadFrame+DecodeEvents does, consume the same bytes, and never hand back
// the slab of a frame it rejects.
func FuzzEventsFrame(f *testing.F) {
	three := AppendEvents(nil, []trace.Event{{T: 1, Op: trace.OpWrite, Targ: 7, Loc: 3}, {Op: trace.OpAcquire, Targ: 2}, {T: 2, Op: trace.OpRead, Targ: 7}})
	for mode := uint8(0); mode < 5; mode++ {
		f.Add(three, mode, uint32(17))
		f.Add(bytes.Repeat(three, 700), mode, uint32(12301)) // several windows
	}
	f.Add([]byte{}, uint8(0), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8, pos uint32) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		evs := eventsOf(data)
		var ref bytes.Buffer
		if err := WriteFrame(&ref, TEvents, AppendEvents(nil, evs)); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		bw := bufio.NewWriterSize(&got, 1<<12) // small: windows straddle flushes
		if err := WriteEvents(bw, evs); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), ref.Bytes()) {
			t.Fatalf("WriteEvents wrote %d bytes that differ from WriteFrame's %d", got.Len(), ref.Len())
		}

		frame := ref.Bytes()
		reseal := func() { // recompute the trailer over a doctored payload
			body := frame[headerSize-1 : len(frame)-trailerSize] // type byte + payload
			binary.LittleEndian.PutUint32(frame[len(frame)-trailerSize:], crc32.ChecksumIEEE(body))
		}
		switch mode % 5 {
		case 1: // bit flip anywhere
			bit := int(pos) % (len(frame) * 8)
			frame[bit/8] ^= 1 << (bit % 8)
		case 2: // truncation
			frame = frame[:int(pos)%len(frame)]
		case 3: // invalid op under a valid checksum
			if len(evs) > 0 {
				frame[headerSize+int(pos)%len(evs)*trace.RecordSize+2] = 0xEE
				reseal()
			}
		case 4: // ragged payload under a valid checksum
			var b bytes.Buffer
			WriteFrame(&b, TEvents, append(AppendEvents(nil, evs), data[:len(data)%trace.RecordSize]...))
			frame = b.Bytes()
		}

		rr := bytes.NewReader(frame)
		wantT, payload, wantErr := ReadFrame(rr)
		var want []trace.Event
		if wantErr == nil && wantT == TEvents {
			want, wantErr = DecodeEvents(payload)
		}

		slab := make([]trace.Event, 0, len(evs)+1)
		sr := bytes.NewReader(frame)
		br := bufio.NewReaderSize(sr, 1<<14)
		gotT, gotPayload, gotEvs, gotErr := readStreaming(br, slab)

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("mode %d: whole-payload reader says %v, streaming reader says %v", mode%5, wantErr, gotErr)
		}
		if gotErr != nil {
			if gotEvs != nil {
				t.Fatalf("rejected frame (%v) still returned %d events", gotErr, len(gotEvs))
			}
			// A stream cut inside a frame is one class (ReadFrame words a cut
			// right after the header as EOF); a bare io.EOF — between frames —
			// is another.
			short := func(err error) bool {
				return err != io.EOF && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF))
			}
			for _, class := range []func(error) bool{
				func(err error) bool { return errors.Is(err, ErrCorruptFrame) },
				func(err error) bool { return errors.Is(err, trace.ErrBadRecords) },
				func(err error) bool { return err == io.EOF },
				short,
			} {
				if class(wantErr) != class(gotErr) {
					t.Fatalf("classification differs: whole-payload %v, streaming %v", wantErr, gotErr)
				}
			}
			return
		}
		if gotT != wantT {
			t.Fatalf("frame type %v, want %v", gotT, wantT)
		}
		if wantT == TEvents {
			if len(gotEvs) != len(want) {
				t.Fatalf("decoded %d events, want %d", len(gotEvs), len(want))
			}
			for i := range want {
				if gotEvs[i] != want[i] {
					t.Fatalf("event %d: %v, want %v", i, gotEvs[i], want[i])
				}
			}
		} else if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("%v payload differs", wantT)
		}
		if consumed, wantConsumed := len(frame)-sr.Len()-br.Buffered(), len(frame)-rr.Len(); consumed != wantConsumed {
			t.Fatalf("streaming reader consumed %d bytes, whole-payload reader %d", consumed, wantConsumed)
		}
	})
}

// TestTypeCRC pins the table-step form of the type byte's checksum.
func TestTypeCRC(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := typeCRC(Type(b)), crc32.ChecksumIEEE([]byte{byte(b)}); got != want {
			t.Fatalf("typeCRC(%d) = %08x, want %08x", b, got, want)
		}
	}
}

// TestEventsFrameSlabReuse: a slab big enough is decoded into in place (no
// second buffer exists to return), and one too small is replaced.
func TestEventsFrameSlabReuse(t *testing.T) {
	evs := eventsOf(bytes.Repeat([]byte{1, 0, 1, 0, 9, 0, 0, 0, 4, 0, 0, 0}, 3000))
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	WriteEvents(bw, evs)
	bw.Flush()
	frame := buf.Bytes()
	for _, capacity := range []int{0, 10, 3000, 5000} {
		slab := make([]trace.Event, 0, capacity)
		br := bufio.NewReaderSize(bytes.NewReader(frame), 1<<16)
		_, _, got, err := readStreaming(br, slab)
		if err != nil || len(got) != len(evs) {
			t.Fatalf("cap %d: %d events, err %v", capacity, len(got), err)
		}
		inPlace := capacity > 0 && &got[0] == &slab[:1][0]
		if want := capacity >= len(evs); inPlace != want {
			t.Errorf("cap %d: decoded in place = %v, want %v", capacity, inPlace, want)
		}
	}
}

// TestEventsFrameRoundTripAllocs: in steady state — writer, reader and slab
// already sized — an Events frame costs no allocation on either side.
func TestEventsFrameRoundTripAllocs(t *testing.T) {
	evs := eventsOf(bytes.Repeat([]byte{1, 0, 1, 0, 9, 0, 0, 0, 4, 0, 0, 0}, 8192))
	var pipe bytes.Buffer
	bw := bufio.NewWriterSize(&pipe, 1<<16)
	br := bufio.NewReaderSize(&pipe, 1<<16)
	slab := make([]trace.Event, 0, len(evs))
	roundTrip := func() {
		if err := WriteEvents(bw, evs); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		_, n, err := ReadHeader(br)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadEvents(br, n, slab)
		if err != nil || len(got) != len(evs) {
			t.Fatalf("%d events, err %v", len(got), err)
		}
	}
	roundTrip() // grows pipe's buffer once
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs != 0 {
		t.Errorf("Events frame round trip allocates %v times, want 0", allocs)
	}
}
