package session

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// wireSeeds returns the seed corpus of FuzzWireDecode: valid open, frame
// and close messages, a whole session's stream, and truncations of each.
func wireSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var open, frame, masked, closeMsg bytes.Buffer
	if err := WriteOpen(&open, "walker-1", Spec{Rate: 100, NumAnts: 3, NumTx: 2, NumSub: 4}); err != nil {
		tb.Fatal(err)
	}
	if err := WriteFrame(&frame, "walker-1", wireFrame(3, 2, 4), nil); err != nil {
		tb.Fatal(err)
	}
	if err := WriteFrame(&masked, "w", wireFrame(9, 1, 2), []bool{true, false, false, false, false, false, false, false, true}); err != nil {
		tb.Fatal(err)
	}
	if err := WriteClose(&closeMsg, "walker-1"); err != nil {
		tb.Fatal(err)
	}
	whole := bytes.Join([][]byte{open.Bytes(), frame.Bytes(), masked.Bytes(), closeMsg.Bytes()}, nil)
	seeds := [][]byte{open.Bytes(), frame.Bytes(), masked.Bytes(), closeMsg.Bytes(), whole}
	for _, m := range [][]byte{open.Bytes(), frame.Bytes(), closeMsg.Bytes()} {
		seeds = append(seeds, m[:3], m[:len(m)-1])
	}
	// Non-canonical encodings the decoder must refuse, or they would not
	// re-encode identically: a close with a trailing byte, and a 3-antenna
	// frame whose missing bitmap flags a fourth antenna.
	trailing := append([]byte(nil), closeMsg.Bytes()...)
	trailing = append(trailing, 0)
	binary.LittleEndian.PutUint32(trailing[1:], uint32(len(trailing)-5))
	stray := append([]byte(nil), frame.Bytes()...)
	stray[5+2+len("walker-1")+6] |= 1 << 3
	return append(seeds, trailing, stray)
}

// FuzzWireDecode feeds arbitrary bytes to the RIMWIRE1 message decoder
// (the stream after the preamble) and checks that it never panics, that
// every accepted MsgOpen carries a spec Spec.validate accepts, and that
// every accepted message re-encodes byte-identically through the writer
// of its type — so the decoder accepts exactly what the writers produce.
func FuzzWireDecode(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wr := NewWireReader(bytes.NewReader(data))
		off := 0
		for {
			m, err := wr.Read()
			if err != nil {
				return
			}
			// A successful Read consumed exactly one framed message.
			n := int(binary.LittleEndian.Uint32(data[off+1:]))
			raw := data[off : off+5+n]
			off += 5 + n

			var re bytes.Buffer
			switch m.Type {
			case MsgOpen:
				if err := m.Spec.validate(); err != nil {
					t.Fatalf("decoder accepted an invalid open spec %+v: %v", m.Spec, err)
				}
				err = WriteOpen(&re, m.ID, m.Spec)
			case MsgFrame:
				err = WriteFrame(&re, m.ID, m.Snap, m.Missing)
			case MsgClose:
				err = WriteClose(&re, m.ID)
			default:
				t.Fatalf("decoder returned unknown message type %d", m.Type)
			}
			if err != nil {
				t.Fatalf("re-encoding accepted message %+v: %v", m, err)
			}
			if !bytes.Equal(re.Bytes(), raw) {
				t.Fatalf("type %d message does not re-encode identically:\n got %x\nwant %x", m.Type, re.Bytes(), raw)
			}
		}
	})
}
