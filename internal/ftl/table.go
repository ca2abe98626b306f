package ftl

import "slices"

// A page table's chunk holds 1<<chunkBits = 4,096 entries.
const (
	chunkBits = 12
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// noPage is the absent value of a table of page numbers.
const noPage = -1

// table is a page-indexed table: a directory of fixed chunks, each
// allocated by the first set that lands in it, so a table that is only
// read holds no chunk and no directory. An entry never set, or deleted,
// reads as absent, the table's sentinel, and no stored value may equal
// it. Indices are non-negative; one past the drive's pages grows the
// directory. The zero table is empty and its absent value is V's zero.
type table[V comparable] struct {
	dir    []*[chunkLen]V
	absent V
}

func newTable[V comparable](absent V) table[V] { return table[V]{absent: absent} }

// get returns entry i, or absent when it holds nothing.
func (t *table[V]) get(i int64) V {
	if c := uint64(i) >> chunkBits; c < uint64(len(t.dir)) {
		if ch := t.dir[c]; ch != nil {
			return ch[i&chunkMask]
		}
	}
	return t.absent
}

// has reports whether entry i holds a value.
func (t *table[V]) has(i int64) bool { return t.get(i) != t.absent }

// set stores v at entry i, allocating its chunk on first use.
func (t *table[V]) set(i int64, v V) {
	c := int(i >> chunkBits)
	if c >= len(t.dir) {
		t.dir = slices.Grow(t.dir, c+1-len(t.dir))[:c+1]
	}
	ch := t.dir[c]
	if ch == nil {
		ch = new([chunkLen]V)
		var zero V
		if t.absent != zero {
			for k := range ch {
				ch[k] = t.absent
			}
		}
		t.dir[c] = ch
	}
	ch[i&chunkMask] = v
}

// del clears entry i.
func (t *table[V]) del(i int64) {
	if c := uint64(i) >> chunkBits; c < uint64(len(t.dir)) {
		if ch := t.dir[c]; ch != nil {
			ch[i&chunkMask] = t.absent
		}
	}
}

// each calls fn for every present entry in ascending index order. fn may
// set or clear the entry it is given.
func (t *table[V]) each(fn func(i int64, v V)) {
	for c := 0; c < len(t.dir); c++ {
		ch := t.dir[c]
		if ch == nil {
			continue
		}
		base := int64(c) << chunkBits
		for k := range ch {
			if v := ch[k]; v != t.absent {
				fn(base+int64(k), v)
			}
		}
	}
}

// reset empties the table, dropping its chunks.
func (t *table[V]) reset() { t.dir = nil }
