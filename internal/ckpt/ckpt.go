// Package ckpt checkpoints out-of-core solver state onto compute-local NVM.
// The paper's related work uses node-local flash as a write-back cache for
// checkpoints; with UFS-managed NVM the application can own the checkpoint
// region directly: this package double-buffers serialized solver state in
// two eraseblock-aligned slots (erase-before-write makes in-place update
// impossible), protects it with a checksum, and restores the newest valid
// snapshot after a failure.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"oocnvm/internal/core"
	"oocnvm/internal/linalg"
)

// State is a LOBPCG-style solver snapshot: the iterate block, the conjugate
// directions, the Ritz values, and the iteration index.
type State struct {
	Iteration int
	Values    []float64
	X         *linalg.Matrix
	P         *linalg.Matrix // may be nil
}

// magic guards against restoring garbage.
var magic = [8]byte{'O', 'O', 'C', 'C', 'K', 'P', 'T', '1'}

// Encode serializes a state with a trailing FNV-64a checksum.
func Encode(s State) ([]byte, error) {
	if s.X == nil {
		return nil, fmt.Errorf("ckpt: state requires an X block")
	}
	size := 8 + 4 + 4 + 8*len(s.Values) + matBytes(s.X) + matBytes(s.P) + 8
	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = appendU32(buf, uint32(s.Iteration))
	buf = appendU32(buf, uint32(len(s.Values)))
	for _, v := range s.Values {
		buf = appendF64(buf, v)
	}
	buf = appendMatrix(buf, s.X)
	buf = appendMatrix(buf, s.P)
	h := fnv.New64a()
	h.Write(buf)
	buf = binary.LittleEndian.AppendUint64(buf, h.Sum64())
	return buf, nil
}

// Decode parses and verifies a serialized state.
func Decode(raw []byte) (State, error) {
	if len(raw) < len(magic)+8 {
		return State{}, fmt.Errorf("ckpt: snapshot truncated (%d bytes)", len(raw))
	}
	body, sum := raw[:len(raw)-8], binary.LittleEndian.Uint64(raw[len(raw)-8:])
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return State{}, fmt.Errorf("ckpt: checksum mismatch")
	}
	if string(body[:8]) != string(magic[:]) {
		return State{}, fmt.Errorf("ckpt: bad magic")
	}
	at := 8
	var s State
	var u uint32
	u, at = readU32(body, at)
	s.Iteration = int(u)
	u, at = readU32(body, at)
	s.Values = make([]float64, u)
	for i := range s.Values {
		s.Values[i], at = readF64(body, at)
	}
	var err error
	s.X, at, err = readMatrix(body, at)
	if err != nil {
		return State{}, err
	}
	s.P, _, err = readMatrix(body, at)
	if err != nil {
		return State{}, err
	}
	return s, nil
}

// Writer owns a double-buffered checkpoint region on a node's NVM. The two
// slots alternate: a crash during Save leaves the previous slot intact.
type Writer struct {
	node     *core.Node
	name     string
	slotSize int64
	// shadow holds the byte content per slot (the simulator times I/O but
	// does not store payloads).
	shadow  [2][]byte
	current int  // slot holding the newest valid snapshot
	valid   bool // whether any snapshot exists
	saves   int64
}

// NewWriter allocates the checkpoint region (two slots of maxBytes each) on
// the node.
func NewWriter(node *core.Node, name string, maxBytes int64) (*Writer, error) {
	if maxBytes <= 0 {
		return nil, fmt.Errorf("ckpt: maxBytes must be positive")
	}
	if _, err := node.Alloc(name, 2*maxBytes); err != nil {
		return nil, err
	}
	return &Writer{node: node, name: name, slotSize: maxBytes, current: 1}, nil
}

// Save serializes the state into the non-current slot and flips.
func (w *Writer) Save(s State) error {
	raw, err := Encode(s)
	if err != nil {
		return err
	}
	if int64(len(raw)) > w.slotSize {
		return fmt.Errorf("ckpt: snapshot of %d bytes exceeds slot size %d", len(raw), w.slotSize)
	}
	slot := 1 - w.current
	// Erase-before-write: reclaim the whole region, then rewrite the
	// surviving slot and the new snapshot. (UFS erases extents whole; the
	// alternation still bounds the loss window to one snapshot.)
	if err := w.node.Erase(w.name); err != nil {
		return err
	}
	if w.valid {
		if err := w.node.Write(w.name, int64(w.current)*w.slotSize, int64(len(w.shadow[w.current]))); err != nil {
			return err
		}
	}
	if err := w.node.Write(w.name, int64(slot)*w.slotSize, int64(len(raw))); err != nil {
		return err
	}
	w.shadow[slot] = raw
	w.current = slot
	w.valid = true
	w.saves++
	return nil
}

// Load restores the newest valid snapshot, falling back to the older slot
// if the newest is corrupt.
func (w *Writer) Load() (State, error) {
	if !w.valid {
		return State{}, fmt.Errorf("ckpt: no snapshot saved")
	}
	for _, slot := range []int{w.current, 1 - w.current} {
		raw := w.shadow[slot]
		if len(raw) == 0 {
			continue
		}
		if err := w.node.Read(w.name, int64(slot)*w.slotSize, int64(len(raw))); err != nil {
			return State{}, err
		}
		if s, err := Decode(raw); err == nil {
			return s, nil
		}
	}
	return State{}, fmt.Errorf("ckpt: all slots corrupt")
}

// slotIndex resolves a newest-relative slot name (0 = newest, 1 = previous)
// to the physical slot.
func (w *Writer) slotIndex(slotFromNewest int) int {
	if slotFromNewest == 1 {
		return 1 - w.current
	}
	return w.current
}

// Corrupt flips bytes in the named slot's shadow, for failure-injection
// tests (0 = newest, 1 = previous).
func (w *Writer) Corrupt(slotFromNewest int) {
	if len(w.shadow[w.slotIndex(slotFromNewest)]) > 16 {
		w.CorruptAt(slotFromNewest, 12, 0xFF)
	}
}

// CorruptAt XORs mask into byte off of the chosen slot's shadow — the
// torn-write injection hook: one damaged byte anywhere in a snapshot must
// force Load onto the other slot, never onto garbage.
func (w *Writer) CorruptAt(slotFromNewest, off int, mask byte) {
	slot := w.slotIndex(slotFromNewest)
	if off >= 0 && off < len(w.shadow[slot]) && mask != 0 {
		w.shadow[slot][off] ^= mask
	}
}

// Saves reports how many snapshots were taken.
func (w *Writer) Saves() int64 { return w.saves }

// --- codec helpers ------------------------------------------------------------

func matBytes(m *linalg.Matrix) int {
	if m == nil {
		return 8
	}
	return 8 + 8*len(m.Data)
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendMatrix(b []byte, m *linalg.Matrix) []byte {
	if m == nil {
		b = appendU32(b, 0)
		return appendU32(b, 0)
	}
	b = appendU32(b, uint32(m.Rows))
	b = appendU32(b, uint32(m.Cols))
	for _, v := range m.Data {
		b = appendF64(b, v)
	}
	return b
}

func readU32(b []byte, at int) (uint32, int) {
	return binary.LittleEndian.Uint32(b[at:]), at + 4
}

func readF64(b []byte, at int) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[at:])), at + 8
}

func readMatrix(b []byte, at int) (*linalg.Matrix, int, error) {
	if at+8 > len(b) {
		return nil, at, fmt.Errorf("ckpt: matrix header truncated")
	}
	var rows, cols uint32
	rows, at = readU32(b, at)
	cols, at = readU32(b, at)
	if rows == 0 && cols == 0 {
		return nil, at, nil
	}
	n := int(rows) * int(cols)
	if at+8*n > len(b) {
		return nil, at, fmt.Errorf("ckpt: matrix body truncated")
	}
	m := linalg.NewMatrix(int(rows), int(cols))
	for i := 0; i < n; i++ {
		m.Data[i], at = readF64(b, at)
	}
	return m, at, nil
}
