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

// Header is the id-space declaration at the front of a serialized trace
// (Trace.Header derives a complete trace's). In a streamed trace the id
// spaces are what the producer declared, possibly zero, not bounds: the
// events that follow may introduce larger ids, and readers widen to them.
// No analysis reads a header; analyses size themselves to the ids fed.
type Header struct {
	Threads, Vars, Locks, Volatiles, Classes int
	// Events is the declared event count, or Unbounded for a stream whose
	// length is discovered at EOF.
	Events uint64
}

// Unbounded marks a header whose event count is unknown (streamed output).
const Unbounded = streamCount

// Widen grows h's id spaces to cover every id evs use. Events stays as is.
func (h *Header) Widen(evs []Event) {
	widen([...]*int{&h.Threads, &h.Vars, &h.Locks, &h.Volatiles, &h.Classes}, evs)
}

// encode is h in the binary format, magic and version first.
func (h Header) encode() []byte {
	b := binary.LittleEndian.AppendUint32([]byte(binMagic), binVersion)
	for _, n := range [...]int{h.Threads, h.Vars, h.Locks, h.Volatiles, h.Classes} {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return binary.LittleEndian.AppendUint64(b, h.Events)
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
	hdr     Header
	hdrRead bool
	read    uint64  // events served
	buf     []Event // the window's storage
	win     []Event // the window's events not yet served
	end     error   // what the stream holds after the window: io.EOF or an error
	err     error
}

// NewDecoder returns a decoder reading the binary format from r. The
// header is read lazily on the first Header or Next call.
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
	hdr := make([]byte, 4*6+8)
	if _, err := io.ReadFull(d.br, hdr); err != nil {
		d.err = fmt.Errorf("trace: reading header: %w", err)
		return d.err
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binVersion {
		d.err = fmt.Errorf("trace: unsupported version %d", v)
		return d.err
	}
	d.hdr = Header{
		Threads:   int(binary.LittleEndian.Uint32(hdr[4:])),
		Vars:      int(binary.LittleEndian.Uint32(hdr[8:])),
		Locks:     int(binary.LittleEndian.Uint32(hdr[12:])),
		Volatiles: int(binary.LittleEndian.Uint32(hdr[16:])),
		Classes:   int(binary.LittleEndian.Uint32(hdr[20:])),
		Events:    binary.LittleEndian.Uint64(hdr[24:]),
	}
	d.hdrRead = true
	return nil
}

// Header returns the trace's id-space declaration, reading it from the
// stream if it has not been read yet.
func (d *Decoder) Header() (Header, error) {
	if err := d.readHeader(); err != nil {
		return Header{}, err
	}
	return d.hdr, nil
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
	if d.hdr.Events != Unbounded {
		if d.read >= d.hdr.Events {
			return io.EOF
		}
		want = min(want, d.hdr.Events-d.read)
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
	case err == io.EOF && d.hdr.Events == Unbounded:
		d.end = io.EOF
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		d.end = fmt.Errorf("trace: truncated at event %d of %d", d.read+uint64(n), d.hdr.Events)
	case err != nil:
		d.end = fmt.Errorf("trace: reading event %d: %w", d.read+uint64(n), err)
	}
	d.win = d.buf[:n]
	return nil
}

// Encoder writes the binary format incrementally, one event per Encode
// call, for producers that do not hold the whole trace in memory. The
// header carries the declared id spaces and the Unbounded event-count
// sentinel; Close flushes buffered output.
type Encoder struct {
	bw     *bufio.Writer
	hdrOut bool
	hdr    Header
	err    error
}

// NewEncoder returns an encoder writing to w under header hdr, whose event
// count it replaces with Unbounded (zero id spaces are fine; readers widen
// to the ids they meet).
func NewEncoder(w io.Writer, hdr Header) *Encoder {
	return &Encoder{bw: bufio.NewWriterSize(w, 1<<16), hdr: hdr}
}

func (e *Encoder) writeHeader() error {
	if e.hdrOut || e.err != nil {
		return e.err
	}
	h := e.hdr
	h.Events = streamCount
	if _, e.err = e.bw.Write(h.encode()); e.err == nil {
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
	hdr      Header
	hdrRead  bool
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

func (d *TextDecoder) readHeader() error {
	if d.hdrRead || d.err != nil {
		return d.err
	}
	if !d.sc.Scan() {
		if err := d.sc.Err(); err != nil {
			d.err = err
		} else {
			d.err = fmt.Errorf("trace: empty input")
		}
		return d.err
	}
	d.line = 1
	h := Header{Events: Unbounded}
	if _, err := fmt.Sscanf(d.sc.Text(), "# threads=%d vars=%d locks=%d volatiles=%d classes=%d",
		&h.Threads, &h.Vars, &h.Locks, &h.Volatiles, &h.Classes); err != nil {
		d.err = fmt.Errorf("trace: bad header %q: %w", d.sc.Text(), err)
		return d.err
	}
	d.hdr = h
	d.hdrRead = true
	return nil
}

// Header returns the trace's id-space declaration. The text format does not
// declare an event count, so Events is always Unbounded.
func (d *TextDecoder) Header() (Header, error) {
	if err := d.readHeader(); err != nil {
		return Header{}, err
	}
	return d.hdr, nil
}

// Next returns the next event. It returns io.EOF after the last line.
func (d *TextDecoder) Next() (Event, error) {
	if err := d.readHeader(); err != nil {
		return Event{}, err
	}
	for d.sc.Scan() {
		d.line++
		txt := d.sc.Text()
		if txt == "" {
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
	if err := d.sc.Err(); err != nil {
		d.err = err
		return Event{}, err
	}
	return Event{}, io.EOF
}
