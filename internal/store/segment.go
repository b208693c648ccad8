package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/fault"
	"repro/internal/trace"
)

// segmentName returns the file name of segment n.
func segmentName(n uint32) string { return fmt.Sprintf("seg-%08d.rlog", n) }

// encodeSegmentHeader builds the 24-byte segment header.
func encodeSegmentHeader(seg uint32, first uint64) [headerSize]byte {
	var b [headerSize]byte
	copy(b[0:4], segMagic)
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint32(b[8:], seg)
	binary.LittleEndian.PutUint32(b[12:], 0)
	binary.LittleEndian.PutUint64(b[16:], first)
	return b
}

// parseSegmentHeader validates and decodes a segment header.
func parseSegmentHeader(b []byte) (seg uint32, first uint64, err error) {
	if len(b) < headerSize {
		return 0, 0, fmt.Errorf("store: segment header truncated at %d bytes", len(b))
	}
	if string(b[0:4]) != segMagic {
		return 0, 0, fmt.Errorf("store: bad segment magic %q", b[0:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != version {
		return 0, 0, fmt.Errorf("store: unsupported racelog version %d", v)
	}
	return binary.LittleEndian.Uint32(b[8:]), binary.LittleEndian.Uint64(b[16:]), nil
}

// footSentinel opens every footer: a record-sized marker whose op byte
// (position 2, like every record's) is invalid, so a recovery scan that
// walks into a footer — the trailer itself was damaged — stops exactly at
// the record/footer boundary instead of absorbing footer bytes as events.
var footSentinel = [trace.RecordSize]byte{'R', 'L', 0xFF, 'F', 'S'}

// buildFooter serializes a sealed segment's footer: sentinel, sparse
// index, summary, trailer. crcRec is the CRC-32 of the segment's record
// bytes.
func buildFooter(count uint64, index []IndexEntry, sum Summary, crcRec uint32) []byte {
	footLen := len(footSentinel) + len(index)*indexEntrySz + summarySize + trailerSize
	out := make([]byte, 0, footLen)
	out = append(out, footSentinel[:]...)
	for _, e := range index {
		var b [indexEntrySz]byte
		binary.LittleEndian.PutUint64(b[0:], e.Off)
		binary.LittleEndian.PutUint64(b[8:], e.Pos)
		out = append(out, b[:]...)
	}
	out = appendSummary(out, sum)
	crcMeta := crc32.ChecksumIEEE(out)
	var tr [trailerSize]byte
	copy(tr[0:4], footMagic)
	binary.LittleEndian.PutUint64(tr[4:], count)
	binary.LittleEndian.PutUint32(tr[12:], uint32(len(index)))
	binary.LittleEndian.PutUint32(tr[16:], crcRec)
	binary.LittleEndian.PutUint32(tr[20:], crcMeta)
	binary.LittleEndian.PutUint32(tr[24:], uint32(footLen))
	return append(out, tr[:]...)
}

// segMeta is one recovered segment: its identity, how many records of it
// are valid, and whether it carries a verified footer.
type segMeta struct {
	path   string
	seg    uint32
	first  uint64
	count  uint64
	sealed bool
	sum    Summary
	index  []IndexEntry
	// crcRec is the CRC-32 of the count valid records — from the trailer
	// for verified seals, recomputed by the scan otherwise — so a
	// reopened tail can resume its running CRC without re-reading disk.
	crcRec uint32
	// size is the byte length of the segment's valid content: header +
	// count records, plus the footer when sealed. Recovery truncates
	// writable segments to this.
	size int64
}

func (m *segMeta) last() uint64 { return m.first + m.count }

// decodeSegment recovers one segment image. It never fails on corruption:
// a segment that does not verify as sealed is scanned record by record and
// truncated (in the returned meta) at the first torn or invalid record.
// Only a wrong identity — bad header, wrong segment number, wrong first
// offset — returns ok=false, telling recovery to drop the file entirely.
func decodeSegment(data []byte, wantSeg uint32, wantFirst uint64) (segMeta, bool) {
	seg, first, err := parseSegmentHeader(data)
	if err != nil || seg != wantSeg || first != wantFirst {
		return segMeta{}, false
	}
	m := segMeta{seg: seg, first: first}
	verified, recEnd := parseSealed(data, &m)
	if verified {
		return m, true
	}
	// Not a verified seal. If the trailer's geometry was at least
	// self-consistent (a seal whose CRC failed), the record region's end is
	// still known — bound the scan there so footer bytes are never
	// misread as records. Otherwise scan the whole body: a crash tail has
	// no footer at all.
	bound := len(data)
	if recEnd > 0 {
		bound = recEnd
	}
	scanRecords(data[:bound], &m)
	return m, true
}

// parseSealed attempts to verify data as a sealed segment. verified is
// true only when the trailer geometry is consistent, both CRCs match, the
// summary parses, and the sparse index agrees with the fixed-width
// arithmetic. recEnd > 0 reports a geometrically plausible (sizes line up)
// but unverified seal's record-region end, the scan bound for recovery.
func parseSealed(data []byte, m *segMeta) (verified bool, recEnd int) {
	if len(data) < headerSize+trailerSize {
		return false, 0
	}
	tr := data[len(data)-trailerSize:]
	if string(tr[0:4]) != footMagic {
		return false, 0
	}
	count := binary.LittleEndian.Uint64(tr[4:])
	indexCount := binary.LittleEndian.Uint32(tr[12:])
	crcRec := binary.LittleEndian.Uint32(tr[16:])
	crcMeta := binary.LittleEndian.Uint32(tr[20:])
	footLen := binary.LittleEndian.Uint32(tr[24:])
	wantFoot := uint64(len(footSentinel)) + uint64(indexCount)*indexEntrySz + summarySize + trailerSize
	if uint64(footLen) != wantFoot {
		return false, 0
	}
	// Guard the arithmetic below against a hostile count overflowing u64.
	if count > uint64(len(data))/uint64(trace.RecordSize) {
		return false, 0
	}
	total := headerSize + count*uint64(trace.RecordSize) + uint64(footLen)
	if total != uint64(len(data)) {
		return false, 0
	}
	end := int(headerSize + count*uint64(trace.RecordSize))
	foot := data[end : len(data)-trailerSize]
	if crc32.ChecksumIEEE(foot) != crcMeta {
		return false, end
	}
	if crc32.ChecksumIEEE(data[headerSize:end]) != crcRec {
		return false, end
	}
	if [trace.RecordSize]byte(foot[:len(footSentinel)]) != footSentinel {
		return false, end
	}
	entries := foot[len(footSentinel):]
	index := make([]IndexEntry, indexCount)
	for i := range index {
		index[i].Off = binary.LittleEndian.Uint64(entries[i*indexEntrySz:])
		index[i].Pos = binary.LittleEndian.Uint64(entries[i*indexEntrySz+8:])
	}
	sum, err := parseSummary(entries[int(indexCount)*indexEntrySz:], count)
	if err != nil {
		return false, end
	}
	// Cross-check the sparse index against the fixed-width arithmetic the
	// readers rely on.
	for i, e := range index {
		wantOff := m.first + uint64(i)*IndexInterval
		wantPos := headerSize + uint64(i)*IndexInterval*uint64(trace.RecordSize)
		if e.Off != wantOff || e.Pos != wantPos {
			return false, end
		}
	}
	m.count = count
	m.sealed = true
	m.sum = sum
	m.index = index
	m.crcRec = crcRec
	m.size = int64(total)
	return true, end
}

// scanRecords recovers a segment's torn tail: it walks the record region
// validating each fixed-width record, stops at the first invalid or
// partial one, and rebuilds the summary and sparse index of the valid
// prefix in memory.
func scanRecords(data []byte, m *segMeta) {
	body := data[min(headerSize, len(data)):]
	// A footer that failed verification is indistinguishable from torn
	// record bytes; the op-validity scan below stops inside it in the
	// (vanishingly likely) worst case, and CRC-verified seals mean we
	// never get here for intact sealed segments.
	n := uint64(len(body) / trace.RecordSize)
	var count uint64
	for count = 0; count < n; count++ {
		rec := body[count*uint64(trace.RecordSize):]
		ev, err := trace.GetRecord(rec)
		if err != nil {
			break
		}
		if count%IndexInterval == 0 {
			m.index = append(m.index, IndexEntry{
				Off: m.first + count,
				Pos: headerSize + count*uint64(trace.RecordSize),
			})
		}
		m.sum.add([]trace.Event{ev})
	}
	m.count = count
	m.sealed = false
	m.crcRec = crc32.ChecksumIEEE(body[:count*uint64(trace.RecordSize)])
	m.size = int64(headerSize + count*uint64(trace.RecordSize))
}

// recoverSegment reads one segment file and decodes it. I/O failures are
// errors; corruption is recovered per decodeSegment.
func recoverSegment(fsys fault.FS, path string, wantSeg uint32, wantFirst uint64) (segMeta, bool, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return segMeta{}, false, err
	}
	m, ok := decodeSegment(data, wantSeg, wantFirst)
	m.path = path
	return m, ok, nil
}

// writeSealedFrom seals an unsealed-but-valid segment image in place by
// appending its footer (used when recovery needs to seal a recovered tail
// before continuing in a fresh segment, and by Log.seal at rotation).
func appendFooterFile(f fault.File, m *segMeta, crcRec uint32) error {
	foot := buildFooter(m.count, m.index, m.sum, crcRec)
	if _, err := f.Write(foot); err != nil {
		return err
	}
	m.sealed = true
	m.size += int64(len(foot))
	return nil
}
