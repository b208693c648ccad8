package trace

import (
	"bufio"
	"fmt"
	"io"
)

// Binary format (version 2):
//
//	magic "STRK" | version u32 | nevents u64 |
//	events (tid u16, op u8, pad u8, targ u32, loc u32)...
//
// nevents is the exact event count, or all ones for a stream whose length is
// found at EOF (Encoder). The format is deliberately simple and fixed-width:
// traces are bulk data written once by cmd/tracegen and replayed many times
// by the benchmarks. A trace declares no id spaces: its ids are its
// declaration.
const (
	binMagic   = "STRK"
	binVersion = 2
	headerSize = len(binMagic) + 4 + 8
	recSize    = 12
	textLegend = "# tid op target loc\n"
)

// WriteBinary streams tr to w in the binary format, under its exact event
// count.
func WriteBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(encodeHeader(uint64(len(tr.Events)))); err != nil {
		return err
	}
	if err := WriteRecords(bw, tr.Events, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses a trace in the binary format by draining a Decoder,
// pre-sized when the header counts its events.
func ReadBinary(r io.Reader) (*Trace, error) {
	d := NewDecoder(r)
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	tr := &Trace{}
	if d.count != streamCount {
		const maxEvents = 1 << 32
		if d.count > maxEvents {
			return nil, fmt.Errorf("trace: implausible event count %d", d.count)
		}
		tr.Events = make([]Event, 0, d.count)
	}
	return drain(d, tr)
}

// drain appends the events of either streaming decoder to tr until io.EOF.
func drain(d interface{ Next() (Event, error) }, tr *Trace) (*Trace, error) {
	for {
		e, err := d.Next()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		tr.Events = append(tr.Events, e)
	}
}

// WriteText writes a line-oriented human-readable form: a legend, then one
// event per line (tid, op mnemonic, target, loc):
//
//	# tid op target loc
//	0 rd 0 1
//	1 acq 0 0
//
// A line starting with '#' is a comment.
func WriteText(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(textLegend)
	for _, e := range tr.Events {
		fmt.Fprintf(bw, "%d %s %d %d\n", e.T, e.Op, e.Targ, e.Loc)
	}
	return bw.Flush()
}

// ReadText parses the line-oriented form produced by WriteText by draining
// a TextDecoder.
func ReadText(r io.Reader) (*Trace, error) { return drain(NewTextDecoder(r), &Trace{}) }
