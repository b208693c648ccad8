package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"
)

// RecordSize is the fixed wire size of one encoded event: tid u16, op u8,
// pad u8, targ u32, loc u32, little-endian. It is shared by the binary
// trace codec (WriteBinary/Encoder/Decoder) and the raced wire protocol's
// event frames, so an event batch on the wire is byte-compatible with the
// body of a trace file.
const RecordSize = recSize

// recordPad is the offset of a record's pad byte, which is written as 0 and
// ignored on read.
const recordPad = 3

// eventIsRecord reports whether this host lays an Event out in memory
// exactly as a record — fields at the record's offsets, the pad byte where
// the record's is, little-endian — so that a run of records and a []Event
// are the same bytes. Every 64-bit little-endian target Go supports does;
// the run codecs then move records with one copy, and on any other host they
// fall back to encoding field by field. Tests clear it to hold the two paths
// to each other.
var eventIsRecord = unsafe.Sizeof(Event{}) == RecordSize &&
	unsafe.Offsetof(Event{}.T) == 0 && unsafe.Offsetof(Event{}.Op) == 2 &&
	unsafe.Offsetof(Event{}.Targ) == 4 && unsafe.Offsetof(Event{}.Loc) == 8 &&
	binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// eventBytes is the memory of evs as bytes: valid only where eventIsRecord.
func eventBytes(evs []Event) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(evs))), len(evs)*RecordSize)
}

// PutRecord encodes e into b, which must be at least RecordSize bytes.
func PutRecord(b []byte, e Event) {
	binary.LittleEndian.PutUint16(b[0:], uint16(e.T))
	b[2] = uint8(e.Op)
	b[3] = 0
	binary.LittleEndian.PutUint32(b[4:], e.Targ)
	binary.LittleEndian.PutUint32(b[8:], uint32(e.Loc))
}

// GetRecord decodes one event from b, which must be at least RecordSize
// bytes, validating the op.
func GetRecord(b []byte) (Event, error) {
	e := decodeRecord(b)
	if !e.Op.Valid() {
		return Event{}, invalidOp(e.Op)
	}
	return e, nil
}

// invalidOp is the error for one record carrying op: GetRecord's, and the
// Decoder's under the record's event index.
func invalidOp(op Op) error {
	return fmt.Errorf("trace: invalid op %d in record", uint8(op))
}

// decodeRecord decodes one record without judging its op.
func decodeRecord(b []byte) Event {
	return Event{
		T:    Tid(binary.LittleEndian.Uint16(b[0:])),
		Op:   Op(b[2]),
		Targ: binary.LittleEndian.Uint32(b[4:]),
		Loc:  Loc(binary.LittleEndian.Uint32(b[8:])),
	}
}

// RecordWindow is how many records the windowed codecs (ReadRecords,
// WriteRecords) encode, checksum and copy per pass: 12 KiB, small enough
// that the checksum and the codec touch the bytes while they are still in
// the L1 cache, large enough that per-call overheads vanish.
const RecordWindow = 1024

// ErrBadRecords marks an event-record run the codec refuses: an invalid op
// byte or a byte count that is not a whole number of records.
var ErrBadRecords = errors.New("trace: malformed event records")

// PutRecords encodes evs into b, which must hold len(evs) records. Every pad
// byte is written as 0, whatever an Event decoded from a record with a
// non-zero one carries in its padding.
func PutRecords(b []byte, evs []Event) {
	b = b[:len(evs)*RecordSize]
	if eventIsRecord {
		copy(b, eventBytes(evs))
		for i := recordPad; i < len(b); i += RecordSize {
			b[i] = 0
		}
		return
	}
	for i, e := range evs {
		PutRecord(b[i*RecordSize:], e)
	}
}

// GetRecords decodes len(dst) records from b. Every record is decoded; the
// result is the index of the first one whose op is invalid, or -1.
func GetRecords(dst []Event, b []byte) int {
	b = b[:len(dst)*RecordSize]
	if eventIsRecord {
		copy(eventBytes(dst), b)
	} else {
		for i := range dst {
			dst[i] = decodeRecord(b[i*RecordSize:])
		}
	}
	return firstBadOp(b)
}

// firstBadOp returns the index of the first record of b whose op byte is
// invalid, or -1.
func firstBadOp(b []byte) int {
	for i := 2; i < len(b); i += RecordSize {
		if !Op(b[i]).Valid() {
			return i / RecordSize
		}
	}
	return -1
}

// CheckRecords validates b as a run of event records without decoding it:
// a whole number of records, every op valid. It is the byte scan a hop that
// forwards records verbatim runs in place of a decode.
func CheckRecords(b []byte) error {
	if len(b)%RecordSize != 0 {
		return RaggedRecords(len(b))
	}
	if i := firstBadOp(b); i >= 0 {
		return BadRecord(i, Op(b[i*RecordSize+2]))
	}
	return nil
}

// RaggedRecords is the error for a run of n bytes, not a whole number of
// records.
func RaggedRecords(n int) error {
	return fmt.Errorf("%w: %d bytes is not a whole number of %d-byte records", ErrBadRecords, n, RecordSize)
}

// BadRecord is the error for record i of a run carrying the invalid op.
func BadRecord(i int, op Op) error {
	return fmt.Errorf("%w: record %d: invalid op %d", ErrBadRecords, i, op)
}

// WriteRecords encodes evs straight into bw's free buffer space, a window at
// a time, folding the encoded bytes into the running CRC-32 (IEEE) *crc when
// crc is non-nil. Nothing is allocated and each record is touched once:
// encoded, summed and committed while its window is cache-hot.
func WriteRecords(bw *bufio.Writer, evs []Event, crc *uint32) error {
	for len(evs) > 0 {
		buf := bw.AvailableBuffer()
		if cap(buf) < RecordSize {
			if err := bw.Flush(); err != nil {
				return err
			}
			if buf = bw.AvailableBuffer(); cap(buf) < RecordSize {
				return errors.New("trace: WriteRecords through a writer buffer smaller than one record")
			}
		}
		n := min(len(evs), cap(buf)/RecordSize, RecordWindow)
		buf = buf[:n*RecordSize]
		PutRecords(buf, evs[:n])
		if crc != nil {
			*crc = crc32.Update(*crc, crc32.IEEETable, buf)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// ReadRecords decodes records from br into dst, a window at a time, until
// dst is full or the stream fails, and returns how many it decoded. When crc
// is non-nil the raw bytes are folded into it. err is the stream's own
// condition: io.EOF when it ended on a record boundary, io.ErrUnexpectedEOF
// inside a record. An invalid op does not stop the read — the rest of dst is
// still consumed and summed, so a framed caller can tell corruption from a
// bad sender by its checksum — and is reported separately: bad is the index
// of the first such record (see BadRecord), or -1.
func ReadRecords(br *bufio.Reader, dst []Event, crc *uint32) (n, bad int, err error) {
	bad = -1
	for n < len(dst) {
		want := min(len(dst)-n, RecordWindow, br.Size()/RecordSize)
		b, err := br.Peek(want * RecordSize)
		got := len(b) / RecordSize
		b = b[:got*RecordSize]
		if i := GetRecords(dst[n:n+got], b); i >= 0 && bad < 0 {
			bad = n + i
		}
		if crc != nil {
			*crc = crc32.Update(*crc, crc32.IEEETable, b)
		}
		br.Discard(len(b))
		n += got
		if got < want {
			// Peek came up short and err says why. Leftover bytes that do
			// not make a record mean the stream was cut inside one.
			if err == io.EOF && br.Buffered() > 0 {
				err = io.ErrUnexpectedEOF
			}
			return n, bad, err
		}
	}
	return n, bad, nil
}
