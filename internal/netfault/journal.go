package netfault

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// journalMagic guards against restoring garbage or a foreign artifact.
var journalMagic = [8]byte{'O', 'O', 'C', 'N', 'E', 'T', 'J', '1'}

// Journal persists a transfer's verified-chunk bitmap in two alternating
// slots — the internal/ckpt double-buffer pattern: every checkpoint
// serializes the bitmap (magic, transfer identity, geometry, a write
// sequence number, the bitmap words, a trailing FNV-64a checksum) into the
// slot NOT holding the newest valid image, then flips. A torn or corrupt
// checkpoint therefore costs at most the chunks verified since the
// previous checkpoint, never the whole transfer.
type Journal struct {
	nameSum    uint64
	chunks     int
	chunkBytes int64
	bits       []uint64
	done       int

	slots   [2][]byte
	current int // slot holding the newest valid image
	valid   bool
	seq     uint64
	writes  int64
}

// nameFNV hashes the transfer identity so a journal can refuse to resume a
// different transfer.
func nameFNV(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

// NewJournal creates an empty journal for a transfer of the given shape.
func NewJournal(name string, chunks int, chunkBytes int64) (*Journal, error) {
	if chunks <= 0 || chunkBytes <= 0 {
		return nil, fmt.Errorf("netfault: journal needs positive chunk geometry (chunks=%d chunkBytes=%d)", chunks, chunkBytes)
	}
	return &Journal{
		nameSum:    nameFNV(name),
		chunks:     chunks,
		chunkBytes: chunkBytes,
		bits:       make([]uint64, (chunks+63)/64),
		current:    1,
	}, nil
}

// Done reports whether chunk i is verified.
func (j *Journal) Done(i int) bool {
	if i < 0 || i >= j.chunks {
		return false
	}
	return j.bits[i/64]&(1<<uint(i%64)) != 0
}

// Mark records chunk i as verified.
func (j *Journal) Mark(i int) {
	if i < 0 || i >= j.chunks || j.Done(i) {
		return
	}
	j.bits[i/64] |= 1 << uint(i%64)
	j.done++
}

// DoneCount reports how many chunks are verified.
func (j *Journal) DoneCount() int { return j.done }

// Writes reports how many checkpoints were persisted.
func (j *Journal) Writes() int64 { return j.writes }

// BitmapFNV fingerprints the bitmap; two transfers that verified the same
// chunk set agree on it bit for bit.
func (j *Journal) BitmapFNV() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range j.bits {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}

// encode serializes the journal image with its trailing checksum.
func (j *Journal) encode() []byte {
	buf := make([]byte, 0, 8+8+4+8+8+8*len(j.bits)+8)
	buf = append(buf, journalMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, j.nameSum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(j.chunks))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(j.chunkBytes))
	buf = binary.LittleEndian.AppendUint64(buf, j.seq)
	for _, w := range j.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// decode parses one slot image, returning the bitmap words and sequence
// number, or an error for anything torn, truncated or foreign.
func (j *Journal) decode(raw []byte) (bits []uint64, seq uint64, err error) {
	want := 8 + 8 + 4 + 8 + 8 + 8*len(j.bits) + 8
	if len(raw) != want {
		return nil, 0, fmt.Errorf("netfault: journal image is %d bytes, want %d", len(raw), want)
	}
	body, sum := raw[:len(raw)-8], binary.LittleEndian.Uint64(raw[len(raw)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, 0, fmt.Errorf("netfault: journal checksum mismatch")
	}
	if string(body[:8]) != string(journalMagic[:]) {
		return nil, 0, fmt.Errorf("netfault: bad journal magic")
	}
	at := 8
	if got := binary.LittleEndian.Uint64(body[at:]); got != j.nameSum {
		return nil, 0, fmt.Errorf("netfault: journal belongs to a different transfer")
	}
	at += 8
	if got := int(binary.LittleEndian.Uint32(body[at:])); got != j.chunks {
		return nil, 0, fmt.Errorf("netfault: journal has %d chunks, transfer has %d", got, j.chunks)
	}
	at += 4
	if got := int64(binary.LittleEndian.Uint64(body[at:])); got != j.chunkBytes {
		return nil, 0, fmt.Errorf("netfault: journal chunk size %d, transfer %d", got, j.chunkBytes)
	}
	at += 8
	seq = binary.LittleEndian.Uint64(body[at:])
	at += 8
	bits = make([]uint64, len(j.bits))
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64(body[at:])
		at += 8
	}
	return bits, seq, nil
}

// Checkpoint persists the live bitmap into the non-current slot and flips
// — the double-buffer alternation that keeps the previous image intact
// through a torn write.
func (j *Journal) Checkpoint() {
	j.seq++
	slot := 1 - j.current
	j.slots[slot] = j.encode()
	j.current = slot
	j.valid = true
	j.writes++
}

// Restore loads the newest valid persisted image into the live bitmap,
// falling back to the older slot when the newest is torn. It reports how
// many verified chunks were recovered; with no valid image the bitmap is
// left empty (restart from byte zero).
func (j *Journal) Restore() int {
	if !j.valid {
		return 0
	}
	type cand struct {
		bits []uint64
		seq  uint64
	}
	var best *cand
	for _, slot := range []int{j.current, 1 - j.current} {
		raw := j.slots[slot]
		if len(raw) == 0 {
			continue
		}
		bits, seq, err := j.decode(raw)
		if err != nil {
			continue
		}
		if best == nil || seq > best.seq {
			best = &cand{bits: bits, seq: seq}
		}
	}
	if best == nil {
		j.bits = make([]uint64, len(j.bits))
		j.done = 0
		return 0
	}
	j.bits = best.bits
	j.done = 0
	for i := 0; i < j.chunks; i++ {
		if j.Done(i) {
			j.done++
		}
	}
	return j.done
}

// Persisted returns deep copies of the two slot images (newest first), so
// tests can simulate a crash: rebuild a journal and hand the images back
// through Adopt.
func (j *Journal) Persisted() [2][]byte {
	var out [2][]byte
	out[0] = append([]byte(nil), j.slots[j.current]...)
	out[1] = append([]byte(nil), j.slots[1-j.current]...)
	return out
}

// Adopt installs persisted slot images (newest first) into a fresh
// journal, as after a process restart; Restore then recovers the bitmap.
func (j *Journal) Adopt(slots [2][]byte) {
	j.slots[0] = append([]byte(nil), slots[0]...)
	j.slots[1] = append([]byte(nil), slots[1]...)
	j.current = 0
	j.valid = len(slots[0]) > 0 || len(slots[1]) > 0
}
