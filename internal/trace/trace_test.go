package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" || Erase.String() != "E" || Kind(9).String() != "?" {
		t.Fatal("kind names wrong")
	}
}

func TestDataVsTotalBytes(t *testing.T) {
	ops := []BlockOp{
		{Kind: Read, Size: 100},
		{Kind: Read, Size: 50, Meta: true},
		{Kind: Write, Size: 25},
	}
	if DataBytes(ops) != 125 {
		t.Fatalf("DataBytes = %d, want 125", DataBytes(ops))
	}
	if TotalBytes(ops) != 175 {
		t.Fatalf("TotalBytes = %d, want 175", TotalBytes(ops))
	}
}

func TestCharacterize(t *testing.T) {
	ops := []BlockOp{
		{Kind: Read, Offset: 0, Size: 100},
		{Kind: Read, Offset: 100, Size: 100},                       // sequential
		{Kind: Read, Offset: 500, Size: 100},                       // jump
		{Kind: Read, Offset: 600, Size: 4, Sync: true, Meta: true}, // sequential
	}
	st := Characterize(ops)
	if st.Ops != 4 || st.MetaOps != 1 || st.SyncOps != 1 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.SequentialPct != 0.5 {
		t.Fatalf("sequential = %v, want 0.5", st.SequentialPct)
	}
	if st.Bytes != 304 || st.DataBytes != 300 {
		t.Fatalf("bytes wrong: %+v", st)
	}
}

func TestCharacterizeEmpty(t *testing.T) {
	st := Characterize(nil)
	if st.Ops != 0 || st.MeanSize != 0 || st.SequentialPct != 0 {
		t.Fatalf("empty trace stats: %+v", st)
	}
}

func TestSizeHistogram(t *testing.T) {
	ops := []BlockOp{{Size: 1}, {Size: 1024}, {Size: 1025}, {Size: 2048}}
	h := SizeHistogram(ops)
	got := map[int64]int{}
	for _, b := range h {
		got[b.UpTo] = b.Count
	}
	if got[1] != 1 || got[1024] != 1 || got[2048] != 2 {
		t.Fatalf("histogram %v", got)
	}
	// Buckets must be sorted.
	for i := 1; i < len(h); i++ {
		if h[i].UpTo <= h[i-1].UpTo {
			t.Fatal("histogram not sorted")
		}
	}
}

func TestBlockTraceRoundTrip(t *testing.T) {
	ops := []BlockOp{
		{Kind: Read, Offset: 0, Size: 8192},
		{Kind: Write, Offset: 1 << 40, Size: 4096, Sync: true},
		{Kind: Erase, Offset: 123456, Size: 0, Meta: true},
	}
	var buf bytes.Buffer
	if err := WriteBlockTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBlockTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, back) {
		t.Fatalf("round trip mismatch:\n%v\n%v", ops, back)
	}
}

func TestPosixTraceRoundTrip(t *testing.T) {
	ops := []PosixOp{
		{Kind: Read, Offset: 0, Size: 8 << 20},
		{Kind: Write, Offset: 512 << 20, Size: 2 << 20},
	}
	var buf bytes.Buffer
	if err := WritePosixTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPosixTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, back) {
		t.Fatalf("round trip mismatch:\n%v\n%v", ops, back)
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlockTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBlockTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("got %d ops from empty trace", len(back))
	}
}

func TestReadBlockTraceRejectsWrongMagic(t *testing.T) {
	if _, err := ReadBlockTrace(strings.NewReader("NOTATRACE-AT-ALL")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	// A POSIX trace is not a block trace.
	var buf bytes.Buffer
	if err := WritePosixTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlockTrace(&buf); err == nil {
		t.Fatal("posix trace accepted as block trace")
	}
}

func TestReadTraceRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlockTrace(&buf, []BlockOp{{Kind: Read, Size: 10}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBlockTrace(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ops := []BlockOp{{Kind: Write, Offset: 7, Size: 42, Sync: true, Meta: true}}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBlockJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, back) {
		t.Fatalf("JSON round trip mismatch: %v vs %v", ops, back)
	}
}

func TestPosixJSONRoundTrip(t *testing.T) {
	ops := []PosixOp{{Kind: Read, Offset: 7, Size: 42}}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePosixJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, back) {
		t.Fatalf("JSON round trip mismatch")
	}
}

// Property: arbitrary block traces survive the binary codec bit-exactly.
func TestBlockTraceRoundTripProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		ops := make([]BlockOp, len(raw))
		for i, r := range raw {
			ops[i] = BlockOp{
				Kind:   Kind(r % 3),
				Offset: int64(r) * 513,
				Size:   int64(r%100000) + 1,
				Sync:   r%5 == 0,
				Meta:   r%7 == 0,
			}
		}
		var buf bytes.Buffer
		if err := WriteBlockTrace(&buf, ops); err != nil {
			return false
		}
		back, err := ReadBlockTrace(&buf)
		if err != nil {
			return false
		}
		if len(ops) == 0 {
			return len(back) == 0
		}
		return reflect.DeepEqual(ops, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadPosixTraceRejectsWrongMagic(t *testing.T) {
	if _, err := ReadPosixTrace(strings.NewReader("NOTATRACE-AT-ALL")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	var buf bytes.Buffer
	if err := WriteBlockTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPosixTrace(&buf); err == nil {
		t.Fatal("block trace accepted as posix trace")
	}
}

func TestReadPosixTraceRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePosixTrace(&buf, []PosixOp{{Kind: Read, Size: 10}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadPosixTrace(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("truncated posix trace accepted")
	}
}

func TestDecodeJSONErrors(t *testing.T) {
	if _, err := DecodeBlockJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad block JSON accepted")
	}
	if _, err := DecodePosixJSON(strings.NewReader("[{]")); err == nil {
		t.Fatal("bad posix JSON accepted")
	}
}

// header is a bare trace header: magic plus a record count and no records.
func header(magic [8]byte, n int64) []byte {
	var buf bytes.Buffer
	buf.Write(magic[:])
	binary.Write(&buf, binary.LittleEndian, n)
	return buf.Bytes()
}

// TestReadTraceHugeCountHeader feeds a 16-byte header claiming 2^62 records:
// the readers must fail on the missing first record instead of reserving
// memory for the claimed count.
func TestReadTraceHugeCountHeader(t *testing.T) {
	const huge = 1 << 62
	if _, err := ReadBlockTrace(bytes.NewReader(header(blockMagic, huge))); err == nil {
		t.Error("block trace with a huge count and no records accepted")
	}
	if _, err := ReadPosixTrace(bytes.NewReader(header(posixMagic, huge))); err == nil {
		t.Error("POSIX trace with a huge count and no records accepted")
	}
}

func TestReadTraceRejectsUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlockTrace(&buf, []BlockOp{{Kind: Kind(3), Size: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlockTrace(&buf); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("block record of kind 3: err = %v, want an unknown-kind error", err)
	}
	buf.Reset()
	if err := WritePosixTrace(&buf, []PosixOp{{Kind: Kind(200), Size: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPosixTrace(&buf); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("POSIX record of kind 200: err = %v, want an unknown-kind error", err)
	}
}
