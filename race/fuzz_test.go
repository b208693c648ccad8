package race_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/race"
	"repro/race/server"
)

// fuzzThreads folds the fuzzer's thread ids — an event's thread and a fork's
// or join's target — below 8, and only those: variable, lock, volatile and
// class ids go through unfolded, since such an id costs the pages it
// touches however far it is. A thread id does not yet: one event by thread
// 65535 still builds 65,536 clocks, each 65,536 wide (the bound on
// per-thread rows is ROADMAP item 7's).
const fuzzThreads = 8

// records encodes evs as the byte string FuzzPublicDoors decodes.
func records(evs []race.Event) []byte {
	b := make([]byte, len(evs)*trace.RecordSize)
	trace.PutRecords(b, evs)
	return b
}

// FuzzPublicDoors: arbitrary event records (at most 64, invalid ops
// included) through every public door that takes a stream. Each door must
// answer with a result or an error, never a panic, and the doors must agree
// on whether the stream is well formed: CheckTrace's verdict is every
// engine's, Analyze's and raced's POST /ingest's.
//
// The engines are one per registered cell, and the full fan-out both
// sequential and WithParallelism(2): a one-cell engine has one computation,
// which the pipeline would not split, so the fan-out is where the pipeline
// (and the engine's same-epoch marking) runs.
func FuzzPublicDoors(f *testing.F) {
	f.Add(records([]race.Event{{T: 0, Op: race.OpRelease, Targ: 3}, {T: 1, Op: race.OpRead, Targ: 1}}))
	f.Add([]byte{})
	srv := server.New(server.Config{IdleTimeout: -1})
	f.Cleanup(func() { srv.Close() })
	handler := srv.Handler()
	cells := race.DetectorTable()
	names := race.Detectors()
	ingest := "/ingest?vindicate=true&analysis=" + url.QueryEscape(strings.Join(names, ","))

	f.Fuzz(func(t *testing.T, data []byte) {
		evs := make([]race.Event, min(len(data)/trace.RecordSize, 64))
		trace.GetRecords(evs, data)
		for i := range evs {
			evs[i].T %= fuzzThreads
			if evs[i].Op == race.OpFork || evs[i].Op == race.OpJoin {
				evs[i].Targ %= fuzzThreads
			}
		}
		tr := &race.Trace{Events: evs}
		tr.Widen(evs)
		checkErr := race.CheckTrace(tr)
		wellFormed := checkErr == nil

		// agree holds a door's verdict to CheckTrace's: a well-formed
		// stream is accepted, and an ill-formed one refused with the
		// checker's *trace.CheckError.
		agree := func(door string, err error) {
			t.Helper()
			var cerr *trace.CheckError
			switch {
			case wellFormed && err != nil:
				t.Errorf("%s refuses a stream CheckTrace accepts: %v", door, err)
			case !wellFormed && !errors.As(err, &cerr):
				t.Errorf("%s = %v on a stream CheckTrace refuses (%v)", door, err, checkErr)
			}
		}
		feed := func(door string, opts ...race.Option) *race.Report {
			t.Helper()
			eng, err := race.NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			ferr := eng.FeedBatch(evs)
			rep, err := eng.Close()
			if ferr != nil && err != ferr {
				t.Errorf("%s: Close after FeedBatch's error %v returned %v", door, ferr, err)
			}
			agree(door, err)
			return rep
		}
		for _, c := range cells {
			feed(c.Name, race.WithAnalysisNames(c.Name))
			_, err := race.Analyze(tr, c.Relation, c.Level)
			agree("Analyze "+c.Name, err)
			_, err = race.AnalyzeByName(tr, c.Name)
			agree("AnalyzeByName "+c.Name, err)
		}
		feed("fan-out", race.WithAnalysisNames(names...))
		rep := feed("parallel fan-out", race.WithAnalysisNames(names...), race.WithParallelism(2))

		if rep != nil {
			if err := rep.Vindicate(tr); err != nil {
				t.Errorf("Report.Vindicate on the stream the report was computed from: %v", err)
			}
		}
		// VerifyWitness on whatever indices and prefix the input names.
		if len(data) >= 2 {
			e1, e2 := int(data[0])%(len(evs)+2)-1, int(data[1])%(len(evs)+2)-1
			race.VerifyWitness(tr, evs[:len(evs)/2], e1, e2)
		}

		var bin bytes.Buffer
		if err := race.WriteTrace(&bin, tr); err != nil {
			if wellFormed {
				t.Errorf("WriteTrace of a well-formed trace: %v", err)
			}
			return
		}
		req := httptest.NewRequest(http.MethodPost, ingest, &bin)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		// An ill-formed stream is the client's input: refused with 400,
		// whether the checker or (for an op it does not know) the decoder
		// refuses it. A panic raced recovers from would still be a failure
		// here.
		want := http.StatusOK
		if !wellFormed {
			want = http.StatusBadRequest
		}
		if body := rec.Body.String(); rec.Code != want || strings.Contains(body, "panicked") {
			t.Errorf("POST /ingest answered %d %q; CheckTrace: %v", rec.Code, strings.TrimSpace(body), checkErr)
		}
	})
}
