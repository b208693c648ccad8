package race_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/race"
)

// TestOneVerdictPerEventList: a trace is its events, so every door gives an
// event list one verdict. Each list below is well formed and races once,
// though its ids leave gaps below them — ids once judged out of range by a
// declared id-space size that one door checked and the others did not:
// CheckTrace, AnalyzeByName, Report.Vindicate, Vindicate, VerifyWitness,
// and ReadTrace over either encoder and ReadTraceText over WriteTraceText,
// whose read-back trace is the same events and passes CheckTrace too.
func TestOneVerdictPerEventList(t *testing.T) {
	for _, row := range []struct {
		name string
		evs  []race.Event
		e1   int // the racing access before the last event
	}{
		{"variable 7 and no variable below it", []race.Event{
			{T: 0, Op: race.OpWrite, Targ: 7},
			{T: 1, Op: race.OpRead, Targ: 7},
		}, 0},
		{"lock 3 and no lock below it", []race.Event{
			{T: 0, Op: race.OpAcquire, Targ: 3},
			{T: 0, Op: race.OpWrite, Targ: 0},
			{T: 0, Op: race.OpRelease, Targ: 3},
			{T: 1, Op: race.OpWrite, Targ: 0},
		}, 1},
		{"thread 4 and no thread between it and 0", []race.Event{
			{T: 0, Op: race.OpWrite, Targ: 0},
			{T: 4, Op: race.OpWrite, Targ: 0},
		}, 0},
		{"variable 2^32-1", []race.Event{
			{T: 0, Op: race.OpWrite, Targ: 1<<32 - 1},
			{T: 1, Op: race.OpRead, Targ: 1<<32 - 1},
		}, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			tr := &race.Trace{Events: row.evs}
			last := len(row.evs) - 1
			if err := race.CheckTrace(tr); err != nil {
				t.Errorf("CheckTrace: %v", err)
			}
			rep, err := race.AnalyzeByName(tr, "ST-WDC")
			if err != nil || rep.Dynamic() != 1 {
				t.Fatalf("AnalyzeByName = %v, %v; want 1 race", rep, err)
			}
			if err := rep.Vindicate(tr); err != nil {
				t.Errorf("Report.Vindicate: %v", err)
			}
			res, err := race.Vindicate(tr, last)
			if err != nil && !errors.Is(err, race.ErrWriteReadRace) {
				t.Errorf("Vindicate: %v", err)
			}
			if res.Vindicated {
				if err := race.VerifyWitness(tr, res.Witness, row.e1, last); err != nil {
					t.Errorf("VerifyWitness of Vindicate's witness: %v", err)
				}
			}
			witness := append(slices.Clone(row.evs[:row.e1+1]), row.evs[last])
			if err := race.VerifyWitness(tr, witness, row.e1, last); err != nil {
				t.Errorf("VerifyWitness: %v", err)
			}

			var written, streamed, text bytes.Buffer
			if err := race.WriteTrace(&written, tr); err != nil {
				t.Fatal(err)
			}
			enc := race.NewTraceEncoder(&streamed)
			for _, e := range row.evs {
				if err := enc.Encode(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			if err := race.WriteTraceText(&text, tr); err != nil {
				t.Fatal(err)
			}
			for _, door := range []struct {
				name string
				read func() (*race.Trace, error)
			}{
				{"ReadTrace of WriteTrace", func() (*race.Trace, error) { return race.ReadTrace(&written) }},
				{"ReadTrace of NewTraceEncoder", func() (*race.Trace, error) { return race.ReadTrace(&streamed) }},
				{"ReadTraceText of WriteTraceText", func() (*race.Trace, error) { return race.ReadTraceText(&text) }},
			} {
				got, err := door.read()
				if err != nil {
					t.Errorf("%s: %v", door.name, err)
					continue
				}
				if !slices.Equal(got.Events, row.evs) {
					t.Errorf("%s: %v, want %v", door.name, got.Events, row.evs)
				}
				if err := race.CheckTrace(got); err != nil {
					t.Errorf("%s, then CheckTrace: %v", door.name, err)
				}
			}
		})
	}
}
