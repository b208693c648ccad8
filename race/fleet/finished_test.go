package fleet

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/race"
	"repro/race/server"
)

// TestResumeOfAFinishedSessionThroughTheRouter: through the router as on a
// backend, a resume of a cleanly closed session attaches at its final
// offset, an events frame answers closed and EOF the close reply byte for
// byte; a session that ended on its sticky error answers with that error.
// None of it moves a session.
func TestResumeOfAFinishedSessionThroughTheRouter(t *testing.T) {
	rt, _, _, addr := fleetOf(t, 2, server.Config{}, Options{})
	ctx := context.Background()
	dial := func() *server.Client {
		c, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// finish streams evs through a fresh session and closes it.
	finish := func(evs []race.Event) (string, []byte, error) {
		sess, err := dial().Open(server.SessionConfig{Analyses: []string{"ST-WDC", "FTO-HB"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.FeedBatch(evs); err != nil {
			t.Fatal(err)
		}
		doc, err := sess.CloseJSON()
		return sess.ID(), doc, err
	}

	b := race.NewBuilder()
	b.Fork("T0", "T1")
	b.Write("T0", "x")
	b.Write("T1", "x")
	tr := b.Build()
	id, want, err := finish(tr.Events)
	if err != nil {
		t.Fatal(err)
	}
	sess, fed, err := dial().Resume(ctx, id)
	if err != nil || fed != uint64(tr.Len()) {
		t.Fatalf("resume of a closed session = offset %d, %v; want its final offset %d", fed, err, tr.Len())
	}
	if err := sess.FeedBatch(tr.Events[:1]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); !errors.Is(err, server.ErrSessionClosed) {
		t.Fatalf("events after resuming a closed session answered %v, want closed", err)
	}
	if sess, _, err = dial().Resume(ctx, id); err != nil {
		t.Fatal(err)
	}
	if got, err := sess.CloseJSON(); err != nil || string(got) != string(want) {
		t.Fatalf("EOF after resuming a closed session answered %s, %v; want the close reply %s", got, err, want)
	}

	failed, _, cerr := finish([]race.Event{{Op: trace.OpRelease, Targ: 3}})
	if cerr == nil {
		t.Fatal("an ill-formed stream closed cleanly")
	}
	_, _, err = dial().Resume(ctx, failed)
	if err == nil || server.Classify(err).Code != wire.CodeInternal || !strings.Contains(err.Error(), "ill-formed event stream") {
		t.Fatalf("resume of a failed session answered %v, want its sticky error %v", err, cerr)
	}
	if m := snapValues(rt.Registry())["fleet_migrations_started_total"]; m != 0 {
		t.Fatalf("resumes of finished sessions started %v migrations, want 0", m)
	}
}
