package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadBlockTrace throws arbitrary bytes at the block-trace reader. It
// must never panic or reserve memory for an unbacked record count, and
// whatever it accepts must survive a write/read round trip unchanged.
func FuzzReadBlockTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBlockTrace(&buf, []BlockOp{
		{Kind: Read, Offset: 0, Size: 4096},
		{Kind: Write, Offset: 4096, Size: 8192, Sync: true},
		{Kind: Erase, Offset: 1 << 20, Size: 1 << 18, Meta: true},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(header(blockMagic, 0))
	f.Add(header(blockMagic, 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ReadBlockTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBlockTrace(&out, ops); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBlockTrace(&out)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if len(ops) > 0 && !reflect.DeepEqual(ops, back) {
			t.Fatalf("round trip changed the trace: %v vs %v", ops, back)
		}
	})
}

// FuzzReadPosixTrace is FuzzReadBlockTrace for the POSIX-trace reader.
func FuzzReadPosixTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WritePosixTrace(&buf, []PosixOp{
		{Kind: Read, Offset: 0, Size: 1 << 20},
		{Kind: Write, Offset: 1 << 20, Size: 512},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(header(posixMagic, 0))
	f.Add(header(posixMagic, 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ReadPosixTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WritePosixTrace(&out, ops); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPosixTrace(&out)
		if err != nil {
			t.Fatalf("re-reading an accepted trace: %v", err)
		}
		if len(ops) > 0 && !reflect.DeepEqual(ops, back) {
			t.Fatalf("round trip changed the trace: %v vs %v", ops, back)
		}
	})
}

// FuzzDecodeBlockJSON throws arbitrary bytes at the JSON block-trace
// decoder. It must never panic or accept a kind outside Read/Write/Erase,
// and whatever it accepts must survive an encode/decode round trip.
func FuzzDecodeBlockJSON(f *testing.F) {
	f.Add([]byte(`[{"kind":0,"offset":0,"size":4096},{"kind":1,"offset":4096,"size":8192,"sync":true}]`))
	f.Add([]byte(`[{"kind":2,"offset":1048576,"size":262144,"meta":true}]`))
	f.Add([]byte(`[{"kind":7,"offset":0,"size":1}]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := DecodeBlockJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, op := range ops {
			if op.Kind > Erase {
				t.Fatalf("record %d: accepted unknown kind %d", i, op.Kind)
			}
		}
		var out bytes.Buffer
		if err := EncodeJSON(&out, ops); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeBlockJSON(&out)
		if err != nil {
			t.Fatalf("re-decoding an accepted trace: %v", err)
		}
		if len(ops) > 0 && !reflect.DeepEqual(ops, back) {
			t.Fatalf("round trip changed the trace: %v vs %v", ops, back)
		}
	})
}

// FuzzDecodePosixJSON is FuzzDecodeBlockJSON for the POSIX decoder.
func FuzzDecodePosixJSON(f *testing.F) {
	f.Add([]byte(`[{"kind":0,"offset":0,"size":1048576},{"kind":1,"offset":1048576,"size":512}]`))
	f.Add([]byte(`[{"kind":200,"offset":0,"size":1}]`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := DecodePosixJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, op := range ops {
			if op.Kind > Erase {
				t.Fatalf("record %d: accepted unknown kind %d", i, op.Kind)
			}
		}
		var out bytes.Buffer
		if err := EncodeJSON(&out, ops); err != nil {
			t.Fatal(err)
		}
		back, err := DecodePosixJSON(&out)
		if err != nil {
			t.Fatalf("re-decoding an accepted trace: %v", err)
		}
		if len(ops) > 0 && !reflect.DeepEqual(ops, back) {
			t.Fatalf("round trip changed the trace: %v vs %v", ops, back)
		}
	})
}
