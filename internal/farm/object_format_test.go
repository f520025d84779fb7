package farm

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestObjectFormatDocExample decodes the worked example of
// docs/object-format.md — a head, its version record and a fat pointer to
// the head — through the region's header accessors and the pointer codec,
// so the document cannot drift from the code.
func TestObjectFormatDocExample(t *testing.T) {
	mustHex := func(s string) []byte {
		t.Helper()
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	r := &Region{id: 1, data: make([]byte, 0xc0)}
	copy(r.data[0x40:], mustHex("2c01000000000000"+"8000000001000000"+"08000000"+"08000000"+"0800000000000000"))
	copy(r.data[0x80:], mustHex("c800000000000020"+"000000000000000000000000"+"08000000"+"0700000000000000"))

	head := r.versionWord(0x40)
	if versionTs(head) != 300 || versionLocked(head) || versionTombed(head) || versionRecord(head) {
		t.Errorf("head version word %#x, want ts 300 and no flags", head)
	}
	if got, want := r.older(0x40), (Ptr{Addr: MakeAddr(1, 0x80), Size: 8}); got != want {
		t.Errorf("head older = %v, want %v", got, want)
	}
	if r.payloadLen(0x40) != 8 || !bytes.Equal(r.payload(0x40), []byte{8, 0, 0, 0, 0, 0, 0, 0}) {
		t.Errorf("head payload = %x", r.payload(0x40))
	}

	rec := r.versionWord(0x80)
	if versionTs(rec) != 200 || !versionRecord(rec) || versionLocked(rec) || versionTombed(rec) {
		t.Errorf("record version word %#x, want record | ts 200", rec)
	}
	if !r.older(0x80).IsNil() {
		t.Errorf("record older = %v, want nil", r.older(0x80))
	}
	if !bytes.Equal(r.payload(0x80), []byte{7, 0, 0, 0, 0, 0, 0, 0}) {
		t.Errorf("record payload = %x", r.payload(0x80))
	}

	enc := mustHex("4000000001000000" + "08000000")
	p := Ptr{Addr: MakeAddr(1, 0x40), Size: 8}
	if got := DecodePtr(enc); got != p {
		t.Errorf("DecodePtr = %v, want %v", got, p)
	}
	if got := AppendPtr(nil, p); !bytes.Equal(got, enc) {
		t.Errorf("AppendPtr = %x, want %x", got, enc)
	}
	if got := DecodePtr(enc[:PtrBytes-1]); got != NilPtr {
		t.Errorf("DecodePtr of a short slice = %v, want NilPtr", got)
	}

	// The chain cut the document describes: at a watermark of 300 the head
	// is the newest visible version, so its record goes.
	r.alloc = newAllocator(0xc0)
	r.alloc.allocAt(0x40, 64)
	r.alloc.allocAt(0x80, 64)
	trimChain(r, 0x40, 300, nil)
	if !r.older(0x40).IsNil() || r.alloc.isLive(0x80) {
		t.Errorf("trimChain at 300 left older %v, record live %v", r.older(0x40), r.alloc.isLive(0x80))
	}
}
