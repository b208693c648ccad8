package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// streamCount is the sentinel event count an Encoder writes in the binary
// header when the stream length is not known up front: the decoder then
// reads events until EOF. WriteBinary, which has the whole trace in hand,
// writes the exact count instead.
const streamCount = ^uint64(0)

// encodeHeader is the binary header over count events: magic, version and
// count.
func encodeHeader(count uint64) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(binMagic), binVersion)
	return binary.LittleEndian.AppendUint64(b, count)
}

// Decoder reads a binary trace incrementally, one event per Next call,
// without materializing the event list. It is the streaming counterpart of
// ReadBinary: arbitrarily large trace files can be piped through an
// analysis engine in constant memory.
//
// Next serves events from a window of up to RecordWindow records decoded in
// one ReadRecords pass. A window holds only what the stream has already
// delivered, or one record when nothing has: a live stream's events are
// served as they arrive.
type Decoder struct {
	br      *bufio.Reader
	count   uint64 // the header's event count, or streamCount
	hdrRead bool
	read    uint64  // events served
	buf     []Event // the window's storage
	win     []Event // the window's events not yet served
	end     error   // what the stream holds after the window: io.EOF or an error
	err     error
}

// NewDecoder returns a decoder reading the binary format from r. The
// header is read lazily on the first Next call.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, 1<<16)}
}

func (d *Decoder) readHeader() error {
	if d.hdrRead || d.err != nil {
		return d.err
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(d.br, magic); err != nil {
		d.err = fmt.Errorf("trace: reading magic: %w", err)
		return d.err
	}
	if string(magic) != binMagic {
		d.err = fmt.Errorf("trace: bad magic %q", magic)
		return d.err
	}
	hdr := make([]byte, headerSize-len(binMagic))
	if _, err := io.ReadFull(d.br, hdr); err != nil {
		d.err = fmt.Errorf("trace: reading header: %w", err)
		return d.err
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binVersion {
		d.err = fmt.Errorf("trace: unsupported version %d", v)
		return d.err
	}
	d.count = binary.LittleEndian.Uint64(hdr[4:])
	d.hdrRead = true
	return nil
}

// Next returns the next event. It returns io.EOF after the last event.
func (d *Decoder) Next() (Event, error) {
	for len(d.win) == 0 {
		if err := d.fill(); err != nil {
			return Event{}, err
		}
	}
	e := d.win[0]
	d.win = d.win[1:]
	d.read++
	return e, nil
}

// fill decodes the next window, or returns what the stream holds in place
// of the next event: io.EOF, or the decoder's sticky error. A window that
// ends early leaves why in d.end, for the fill after it has been served.
func (d *Decoder) fill() error {
	if err := d.readHeader(); err != nil {
		return err
	}
	if end := d.end; end != nil {
		d.end = nil
		if end != io.EOF {
			d.err = end
		}
		return end
	}
	want := uint64(RecordWindow)
	if d.count != streamCount {
		if d.read >= d.count {
			return io.EOF
		}
		want = min(want, d.count-d.read)
	}
	want = min(want, uint64(max(1, d.br.Buffered()/RecordSize)))
	if d.buf == nil {
		d.buf = make([]Event, RecordWindow)
	}
	n, bad, err := ReadRecords(d.br, d.buf[:want], nil)
	switch {
	case bad >= 0:
		n = bad
		d.end = fmt.Errorf("trace: event %d: %w", d.read+uint64(n), invalidOp(d.buf[n].Op))
	case err == io.EOF && d.count == streamCount:
		d.end = io.EOF
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		d.end = fmt.Errorf("trace: truncated at event %d of %d", d.read+uint64(n), d.count)
	case err != nil:
		d.end = fmt.Errorf("trace: reading event %d: %w", d.read+uint64(n), err)
	}
	d.win = d.buf[:n]
	return nil
}

// Encoder writes the binary format incrementally, one event per Encode
// call, for producers that do not hold the whole trace in memory. Its
// header's event count is the sentinel for "found at EOF"; Close flushes
// buffered output.
type Encoder struct {
	bw     *bufio.Writer
	hdrOut bool
	err    error
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{bw: bufio.NewWriterSize(w, 1<<16)}
}

func (e *Encoder) writeHeader() error {
	if e.hdrOut || e.err != nil {
		return e.err
	}
	if _, e.err = e.bw.Write(encodeHeader(streamCount)); e.err == nil {
		e.hdrOut = true
	}
	return e.err
}

// Encode appends one event to the stream.
func (e *Encoder) Encode(ev Event) error {
	if err := e.writeHeader(); err != nil {
		return err
	}
	var rec [recSize]byte
	PutRecord(rec[:], ev)
	if _, err := e.bw.Write(rec[:]); err != nil {
		e.err = err
	}
	return e.err
}

// Close flushes the stream (writing the header first if no events were
// encoded).
func (e *Encoder) Close() error {
	if err := e.writeHeader(); err != nil {
		return err
	}
	return e.bw.Flush()
}

// TextDecoder reads the line-oriented text format incrementally. It mirrors
// Decoder for the human-readable format.
type TextDecoder struct {
	sc       *bufio.Scanner
	opByName map[string]Op
	line     int
	err      error
}

// NewTextDecoder returns a decoder reading the text format from r.
func NewTextDecoder(r io.Reader) *TextDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	opByName := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		opByName[op.String()] = op
	}
	return &TextDecoder{sc: sc, opByName: opByName}
}

// Next returns the next event. It returns io.EOF after the last line, and
// an error for an input of no lines at all. Blank lines and lines starting
// with '#' are skipped.
func (d *TextDecoder) Next() (Event, error) {
	if d.err != nil {
		return Event{}, d.err
	}
	for d.sc.Scan() {
		d.line++
		txt := d.sc.Text()
		if txt == "" || txt[0] == '#' {
			continue
		}
		var tid int
		var opName string
		var targ, loc uint32
		if _, err := fmt.Sscanf(txt, "%d %s %d %d", &tid, &opName, &targ, &loc); err != nil {
			d.err = fmt.Errorf("trace: line %d %q: %w", d.line, txt, err)
			return Event{}, d.err
		}
		op, ok := d.opByName[opName]
		if !ok {
			d.err = fmt.Errorf("trace: line %d: unknown op %q", d.line, opName)
			return Event{}, d.err
		}
		return Event{T: Tid(tid), Op: op, Targ: targ, Loc: Loc(loc)}, nil
	}
	if d.err = d.sc.Err(); d.err == nil && d.line == 0 {
		d.err = fmt.Errorf("trace: empty input")
	}
	if d.err != nil {
		return Event{}, d.err
	}
	return Event{}, io.EOF
}
