// Package trace defines the two trace levels the paper captures (§4.2):
// POSIX-level operations as issued by the OoC application, and device-level
// block operations as they leave a file system for the SSD. It also provides
// codecs for storing traces and helpers for characterizing access patterns
// (sequentiality, request-size distribution) used to regenerate Figure 6.
package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Kind distinguishes reads from writes.
type Kind uint8

// Operation kinds. Erase appears only in block traces, from hosts (UFS) that
// manage the medium directly.
const (
	Read Kind = iota
	Write
	Erase
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Erase:
		return "E"
	default:
		return "?"
	}
}

// PosixOp is one POSIX-level request against the application's file address
// space, as captured "directly under the application but prior to reaching
// GPFS".
type PosixOp struct {
	Kind   Kind  `json:"kind"`
	Offset int64 `json:"offset"`
	Size   int64 `json:"size"`
}

// BlockOp is one device-level request as emitted by a file system.
type BlockOp struct {
	Kind   Kind  `json:"kind"`
	Offset int64 `json:"offset"` // byte address in the device's space
	Size   int64 `json:"size"`
	Sync   bool  `json:"sync,omitempty"` // barrier: drains the queue before and after
	Meta   bool  `json:"meta,omitempty"` // metadata/journal, not application data
}

// Stats summarizes a block trace's request population.
type Stats struct {
	Ops           int
	Bytes         int64
	DataBytes     int64
	MetaOps       int
	SyncOps       int
	MeanSize      float64
	SequentialPct float64 // fraction of ops starting exactly where the previous ended
}

// Characterize computes summary statistics for a block trace.
func Characterize(ops []BlockOp) Stats {
	s := Stats{Ops: len(ops)}
	var nextOff int64 = -1
	seq := 0
	for _, op := range ops {
		s.Bytes += op.Size
		if op.Meta {
			s.MetaOps++
		} else {
			s.DataBytes += op.Size
		}
		if op.Sync {
			s.SyncOps++
		}
		if op.Offset == nextOff {
			seq++
		}
		nextOff = op.Offset + op.Size
	}
	if len(ops) > 0 {
		s.MeanSize = float64(s.Bytes) / float64(len(ops))
		s.SequentialPct = float64(seq) / float64(len(ops))
	}
	return s
}

// --- binary codec -----------------------------------------------------------
//
// The binary format is a magic header followed by fixed-width little-endian
// records; it exists so multi-gigabyte traces round-trip without JSON cost.

var blockMagic = [8]byte{'O', 'O', 'C', 'B', 'L', 'K', '0', '1'}
var posixMagic = [8]byte{'O', 'O', 'C', 'P', 'S', 'X', '0', '1'}

// maxPrealloc caps the slice capacity a reader reserves from a header's
// record count. The count is untrusted input: a 16-byte file claiming 2^62
// records must fail on its missing records, not on the allocation. Longer
// traces grow past the cap by append.
const maxPrealloc = 1 << 16

// readCount reads a trace header's record count.
func readCount(br io.Reader) (int64, error) {
	var n int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("trace: negative record count %d", n)
	}
	return n, nil
}

// checkKind rejects record kinds outside Read/Write/Erase.
func checkKind(i int64, k uint8) error {
	if Kind(k) > Erase {
		return fmt.Errorf("trace: record %d: unknown kind %d", i, k)
	}
	return nil
}

// WriteBlockTrace streams ops to w in the binary block-trace format.
func WriteBlockTrace(w io.Writer, ops []BlockOp) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(blockMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(ops))); err != nil {
		return err
	}
	for _, op := range ops {
		var flags uint8
		if op.Sync {
			flags |= 1
		}
		if op.Meta {
			flags |= 2
		}
		rec := struct {
			Kind   uint8
			Flags  uint8
			_      [6]byte
			Offset int64
			Size   int64
		}{Kind: uint8(op.Kind), Flags: flags, Offset: op.Offset, Size: op.Size}
		if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBlockTrace parses a binary block trace written by WriteBlockTrace.
func ReadBlockTrace(r io.Reader) ([]BlockOp, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != blockMagic {
		return nil, fmt.Errorf("trace: not a block trace (magic %q)", magic)
	}
	n, err := readCount(br)
	if err != nil {
		return nil, err
	}
	ops := make([]BlockOp, 0, min(n, maxPrealloc))
	for i := int64(0); i < n; i++ {
		var rec struct {
			Kind   uint8
			Flags  uint8
			_      [6]byte
			Offset int64
			Size   int64
		}
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		if err := checkKind(i, rec.Kind); err != nil {
			return nil, err
		}
		ops = append(ops, BlockOp{
			Kind:   Kind(rec.Kind),
			Offset: rec.Offset,
			Size:   rec.Size,
			Sync:   rec.Flags&1 != 0,
			Meta:   rec.Flags&2 != 0,
		})
	}
	return ops, nil
}

// WritePosixTrace streams POSIX ops to w in the binary format.
func WritePosixTrace(w io.Writer, ops []PosixOp) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(posixMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(ops))); err != nil {
		return err
	}
	for _, op := range ops {
		rec := struct {
			Kind   uint8
			_      [7]byte
			Offset int64
			Size   int64
		}{Kind: uint8(op.Kind), Offset: op.Offset, Size: op.Size}
		if err := binary.Write(bw, binary.LittleEndian, rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPosixTrace parses a binary POSIX trace.
func ReadPosixTrace(r io.Reader) ([]PosixOp, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != posixMagic {
		return nil, fmt.Errorf("trace: not a POSIX trace (magic %q)", magic)
	}
	n, err := readCount(br)
	if err != nil {
		return nil, err
	}
	ops := make([]PosixOp, 0, min(n, maxPrealloc))
	for i := int64(0); i < n; i++ {
		var rec struct {
			Kind   uint8
			_      [7]byte
			Offset int64
			Size   int64
		}
		if err := binary.Read(br, binary.LittleEndian, &rec); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		if err := checkKind(i, rec.Kind); err != nil {
			return nil, err
		}
		ops = append(ops, PosixOp{Kind: Kind(rec.Kind), Offset: rec.Offset, Size: rec.Size})
	}
	return ops, nil
}

// MarshalJSON helpers: traces also round-trip as JSON arrays for tooling.

// EncodeJSON writes ops as a JSON array.
func EncodeJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	return enc.Encode(v)
}

// DecodeBlockJSON reads a JSON array of block ops, rejecting unknown kinds.
func DecodeBlockJSON(r io.Reader) ([]BlockOp, error) {
	var ops []BlockOp
	if err := json.NewDecoder(r).Decode(&ops); err != nil {
		return nil, err
	}
	for i, op := range ops {
		if err := checkKind(int64(i), uint8(op.Kind)); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// DecodePosixJSON reads a JSON array of POSIX ops, rejecting unknown kinds.
func DecodePosixJSON(r io.Reader) ([]PosixOp, error) {
	var ops []PosixOp
	if err := json.NewDecoder(r).Decode(&ops); err != nil {
		return nil, err
	}
	for i, op := range ops {
		if err := checkKind(int64(i), uint8(op.Kind)); err != nil {
			return nil, err
		}
	}
	return ops, nil
}
