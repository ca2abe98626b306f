package ckpt

import (
	"testing"
)

// tornWriter saves two distinguishable snapshots so the newest slot holds
// iteration 2 and the previous slot iteration 1.
func tornWriter(t *testing.T) *Writer {
	t.Helper()
	w, err := NewWriter(newNode(t), "torn", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	older := sampleState(5, 12, 3, true)
	older.Iteration = 1
	newer := sampleState(6, 12, 3, true)
	newer.Iteration = 2
	if err := w.Save(older); err != nil {
		t.Fatal(err)
	}
	if err := w.Save(newer); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTornWriteEveryByteOffset corrupts the newest snapshot at every single
// byte offset and asserts Load always falls back to the other valid
// snapshot — never returning garbage, never failing outright. CorruptAt is
// an XOR, so each offset's damage is undone before trying the next; one
// writer serves the whole sweep.
func TestTornWriteEveryByteOffset(t *testing.T) {
	w := tornWriter(t)
	for off := 0; off < w.SlotLen(0); off++ {
		w.CorruptAt(0, off, 0xA5)
		s, err := w.Load()
		if err != nil {
			t.Fatalf("corrupt@%d: load failed: %v", off, err)
		}
		if s.Iteration != 1 {
			t.Fatalf("corrupt@%d: restored iteration %d, want the older snapshot (1)", off, s.Iteration)
		}
		w.CorruptAt(0, off, 0xA5) // undo
	}
}

// TestTornWriteEveryTruncation truncates the newest snapshot to every
// possible length; Load must always yield the older snapshot. The test is
// in-package, so the slot image is restored directly between lengths.
func TestTornWriteEveryTruncation(t *testing.T) {
	w := tornWriter(t)
	intact := append([]byte(nil), w.shadow[w.current]...)
	for n := 0; n < len(intact); n++ {
		w.TruncateAt(0, n)
		s, err := w.Load()
		if err != nil {
			t.Fatalf("truncate@%d: load failed: %v", n, err)
		}
		if s.Iteration != 1 {
			t.Fatalf("truncate@%d: restored iteration %d, want 1", n, s.Iteration)
		}
		w.shadow[w.current] = append([]byte(nil), intact...)
	}
}

// TestTornWriteBothSlots damages both snapshots: Load must refuse with an
// error rather than decode garbage.
func TestTornWriteBothSlots(t *testing.T) {
	w := tornWriter(t)
	w.CorruptAt(0, 20, 0x01)
	w.CorruptAt(1, 20, 0x01)
	if _, err := w.Load(); err == nil {
		t.Fatal("two torn slots decoded anyway")
	}
}

// FuzzCkptTornWrite drives arbitrary (offset, mask, truncation) damage into
// the newest slot and asserts the double-buffer invariant: Load either
// returns the older intact snapshot or (if the damage happened to be a
// no-op) the newest — never garbage, never an error.
func FuzzCkptTornWrite(f *testing.F) {
	f.Add(uint16(0), byte(0xFF), false)
	f.Add(uint16(12), byte(0x01), false)
	f.Add(uint16(100), byte(0xA5), true)
	f.Add(uint16(65535), byte(0x80), true)
	f.Fuzz(func(t *testing.T, off16 uint16, mask byte, truncate bool) {
		w, err := NewWriter(newNode(t), "fuzz", 1<<20)
		if err != nil {
			t.Skip()
		}
		older := sampleState(5, 8, 2, false)
		older.Iteration = 1
		newer := sampleState(6, 8, 2, false)
		newer.Iteration = 2
		if err := w.Save(older); err != nil {
			t.Fatal(err)
		}
		if err := w.Save(newer); err != nil {
			t.Fatal(err)
		}
		slotLen := w.SlotLen(0)
		if truncate {
			w.TruncateAt(0, int(off16)%slotLen)
		} else {
			if mask == 0 {
				mask = 0x01 // normalize: a zero mask is a no-op, not damage
			}
			w.CorruptAt(0, int(off16)%slotLen, mask)
		}
		// The damage always lands inside the newest snapshot, and the
		// checksum covers every byte, so Load must recover exactly the
		// older snapshot — never garbage, never an error.
		s, err := w.Load()
		if err != nil {
			t.Fatalf("load after single-slot damage failed: %v", err)
		}
		if s.Iteration != 1 {
			t.Fatalf("restored iteration %d, want the older snapshot (1)", s.Iteration)
		}
	})
}

// TruncateAt cuts the chosen slot's shadow to n bytes, modelling a write
// torn mid-snapshot by power loss.
func (w *Writer) TruncateAt(slotFromNewest, n int) {
	slot := w.slotIndex(slotFromNewest)
	if n >= 0 && n < len(w.shadow[slot]) {
		w.shadow[slot] = w.shadow[slot][:n]
	}
}

// SlotLen reports the byte length of the chosen slot's shadow (0 = newest,
// 1 = previous).
func (w *Writer) SlotLen(slotFromNewest int) int {
	return len(w.shadow[w.slotIndex(slotFromNewest)])
}
