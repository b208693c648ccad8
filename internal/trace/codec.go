package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary format:
//
//	magic "STRK" | version u32 | threads,vars,locks,volatiles,classes u32 |
//	nevents u64 | events (tid u16, op u8, pad u8, targ u32, loc u32)...
//
// The format is deliberately simple and fixed-width: traces are bulk data
// written once by cmd/tracegen and replayed many times by the benchmarks.
const (
	binMagic   = "STRK"
	binVersion = 1
	recSize    = 12
)

// WriteBinary streams tr to w in the binary format.
func WriteBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	hdr := make([]byte, 4*6+8)
	binary.LittleEndian.PutUint32(hdr[0:], binVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(tr.Threads))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(tr.Vars))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(tr.Locks))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(tr.Volatiles))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(tr.Classes))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(tr.Events)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := WriteRecords(bw, tr.Events, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary parses a trace in the binary format by draining a Decoder.
// It accepts both exact-count traces (WriteBinary) and streamed traces
// (Encoder), whose declared id spaces are hints widened to the observed
// ids.
func ReadBinary(r io.Reader) (*Trace, error) {
	tr, streamed, err := drain(NewDecoder(r))
	if err == nil && streamed {
		tr.Widen(tr.Events)
	}
	return tr, err
}

// drain reads either streaming decoder to io.EOF into a Trace declared over
// its header's id spaces, pre-sized when the header counts its events;
// streamed reports that it does not.
func drain(d interface {
	Header() (Header, error)
	Next() (Event, error)
}) (tr *Trace, streamed bool, err error) {
	h, err := d.Header()
	if err != nil {
		return nil, false, err
	}
	tr = &Trace{
		Threads:   h.Threads,
		Vars:      h.Vars,
		Locks:     h.Locks,
		Volatiles: h.Volatiles,
		Classes:   h.Classes,
	}
	if h.Events != Unbounded {
		const maxEvents = 1 << 32
		if h.Events > maxEvents {
			return nil, false, fmt.Errorf("trace: implausible event count %d", h.Events)
		}
		tr.Events = make([]Event, 0, h.Events)
	}
	for {
		e, err := d.Next()
		if err == io.EOF {
			return tr, h.Events == Unbounded, nil
		}
		if err != nil {
			return nil, false, err
		}
		tr.Events = append(tr.Events, e)
	}
}

// Widen grows the trace's declared id spaces to cover every id evs use
// (streamed headers carry hints, not bounds).
func (tr *Trace) Widen(evs []Event) {
	widen := func(n *int, id uint32) {
		if int(id)+1 > *n {
			*n = int(id) + 1
		}
	}
	for _, e := range evs {
		widen(&tr.Threads, uint32(e.T))
		switch e.Op {
		case OpRead, OpWrite:
			widen(&tr.Vars, e.Targ)
		case OpAcquire, OpRelease:
			widen(&tr.Locks, e.Targ)
		case OpFork, OpJoin:
			widen(&tr.Threads, e.Targ)
		case OpVolatileRead, OpVolatileWrite:
			widen(&tr.Volatiles, e.Targ)
		case OpClassInit, OpClassAccess:
			widen(&tr.Classes, e.Targ)
		}
	}
}

// WriteText writes a line-oriented human-readable form:
//
//	# threads=2 vars=1 locks=1 volatiles=0 classes=0
//	0 rd 0 1
//	1 acq 0 0
//
// (tid, op mnemonic, target, loc per line).
func WriteText(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# threads=%d vars=%d locks=%d volatiles=%d classes=%d\n",
		tr.Threads, tr.Vars, tr.Locks, tr.Volatiles, tr.Classes)
	for _, e := range tr.Events {
		fmt.Fprintf(bw, "%d %s %d %d\n", e.T, e.Op, e.Targ, e.Loc)
	}
	return bw.Flush()
}

// ReadText parses the line-oriented form produced by WriteText by draining
// a TextDecoder. The header's id spaces stand as declared.
func ReadText(r io.Reader) (*Trace, error) {
	tr, _, err := drain(NewTextDecoder(r))
	return tr, err
}
