package store

import (
	"io"
	"testing"

	"repro/internal/trace"
)

// BenchmarkStoreAppend measures the racelog append hot path (batched,
// NoSync, rotation included), in events.
func BenchmarkStoreAppend(b *testing.B) {
	evs := genEvents(8192)
	dir := b.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.SetBytes(int64(len(evs)) * trace.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.AppendBatch(evs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(evs))*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkStoreReplay measures streaming a racelog back through a Reader
// (the journal-replay and journal-vindication path).
func BenchmarkStoreReplay(b *testing.B) {
	const n = 1 << 18
	dir := b.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.AppendBatch(genEvents(n)); err != nil {
		b.Fatal(err)
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(n) * trace.RecordSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenRead(dir)
		if err != nil {
			b.Fatal(err)
		}
		got := 0
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			got++
		}
		if got != n {
			b.Fatalf("replayed %d events, want %d", got, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
