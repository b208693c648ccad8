package report

// chunkLen is the number of elements in every chunk of a Chunks list.
const chunkLen = 128

// Chunks is an append-only list kept in chunks of chunkLen elements that
// are never copied: an append to a full chunk allocates the next one, so a
// list of n elements holds n elements plus at most one chunk's slack, and
// growing it moves nothing. At is O(1). An Add that does not start a chunk
// stores only into the Chunks value and the chunk it fills, not into the
// chunk directory, so a Chunks between two Pads keeps its per-element
// stores to its own lines and its data.
type Chunks[T any] struct {
	tail []T   // the chunk being filled, dir's last entry
	dir  [][]T // every chunk, each at its full length
	n    int
}

// Add appends v.
func (l *Chunks[T]) Add(v T) {
	if len(l.tail) == cap(l.tail) {
		l.tail = make([]T, 0, chunkLen)
		l.dir = append(l.dir, l.tail[:chunkLen])
	}
	l.tail = append(l.tail, v)
	l.n++
}

// Len returns the number of elements.
func (l *Chunks[T]) Len() int { return l.n }

// At returns the i-th element in append order.
func (l *Chunks[T]) At(i int) T {
	if uint(i) >= uint(l.n) {
		panic("report: Chunks index out of range")
	}
	return l.dir[i/chunkLen][i%chunkLen]
}

// Each yields every element with its index, in append order; range over it
// as `for i, v := range l.Each`.
func (l *Chunks[T]) Each(yield func(int, T) bool) {
	i := 0
	for _, ch := range l.dir {
		for _, v := range ch[:min(len(ch), l.n-i)] {
			if !yield(i, v) {
				return
			}
			i++
		}
	}
}

// Slice returns a fresh copy of the list, nil when it is empty.
func (l *Chunks[T]) Slice() []T {
	if l.n == 0 {
		return nil
	}
	out := make([]T, 0, l.n)
	for _, ch := range l.dir {
		out = append(out, ch[:min(len(ch), l.n-len(out))]...)
	}
	return out
}
