package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

func wireFrame(ants, tx, tones int) [][][]complex128 {
	snap := make([][][]complex128, ants)
	v := 0.0
	for a := range snap {
		snap[a] = make([][]complex128, tx)
		for t := range snap[a] {
			snap[a][t] = make([]complex128, tones)
			for k := range snap[a][t] {
				snap[a][t][k] = complex(v, -v)
				v++
			}
		}
	}
	return snap
}

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	spec := Spec{Rate: 100, NumAnts: 3, NumTx: 2, NumSub: 4}
	snap := wireFrame(3, 2, 4)
	missing := []bool{false, true, false}
	if err := WriteWirePreamble(&buf); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpen(&buf, "walker-1", spec); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, "walker-1", snap, missing); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, "walker-1", snap, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteClose(&buf, "walker-1"); err != nil {
		t.Fatal(err)
	}

	if err := ReadWirePreamble(&buf); err != nil {
		t.Fatal(err)
	}
	wr := NewWireReader(&buf)
	m, err := wr.Read()
	if err != nil || m.Type != MsgOpen || m.ID != "walker-1" || m.Spec != spec {
		t.Fatalf("open: %+v err=%v", m, err)
	}
	m, err = wr.Read()
	if err != nil || m.Type != MsgFrame {
		t.Fatalf("frame: %+v err=%v", m, err)
	}
	if len(m.Missing) != 3 || !m.Missing[1] || m.Missing[0] {
		t.Fatalf("missing flags = %v", m.Missing)
	}
	for a := range snap {
		for tx := range snap[a] {
			for k := range snap[a][tx] {
				if m.Snap[a][tx][k] != snap[a][tx][k] {
					t.Fatalf("snap[%d][%d][%d] = %v, want %v", a, tx, k, m.Snap[a][tx][k], snap[a][tx][k])
				}
			}
		}
	}
	m, err = wr.Read()
	if err != nil || m.Missing != nil {
		t.Fatalf("all-present frame must decode nil Missing, got %v err=%v", m.Missing, err)
	}
	m, err = wr.Read()
	if err != nil || m.Type != MsgClose || m.ID != "walker-1" {
		t.Fatalf("close: %+v err=%v", m, err)
	}
	if _, err = wr.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("clean hangup must be io.EOF, got %v", err)
	}
}

func TestWireRejectsBadPreamble(t *testing.T) {
	if err := ReadWirePreamble(strings.NewReader("NOTRIM!!")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestWireRejectsOversizedClaims(t *testing.T) {
	// A header claiming a payload beyond the cap must fail before any
	// allocation of that size.
	var buf bytes.Buffer
	buf.WriteByte(MsgFrame)
	var lenb [4]byte
	binary.LittleEndian.PutUint32(lenb[:], wireMaxPayload+1)
	buf.Write(lenb[:])
	if _, err := NewWireReader(&buf).Read(); err == nil {
		t.Fatal("oversized payload claim accepted")
	}

	// Absurd dimensions inside a well-framed message are also refused.
	var fb bytes.Buffer
	if err := WriteOpen(&fb, "x", Spec{Rate: 1, NumAnts: 30000, NumTx: 1, NumSub: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWireReader(&fb).Read(); err == nil {
		t.Fatal("out-of-range antenna count accepted")
	}
}

func TestWireRejectsWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpen(&buf, strings.Repeat("x", wireMaxID+1), Spec{}); err == nil {
		t.Fatal("oversized id accepted")
	}
	ragged := wireFrame(2, 2, 4)
	ragged[1][1] = ragged[1][1][:2]
	if err := WriteFrame(&buf, "id", ragged, nil); err == nil {
		t.Fatal("ragged frame accepted")
	}
	if err := WriteFrame(&buf, "id", nil, nil); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestWireTruncatedPayloadIsError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, "id", wireFrame(2, 1, 3), nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := NewWireReader(bytes.NewReader(b[:len(b)-5])).Read(); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// TestSpecRejectsBadRate pins the rate check in both places a spec enters
// the daemon: Spec.validate and the MsgOpen decoder. NaN and ±Inf must be
// refused like zero and negative rates.
func TestSpecRejectsBadRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		ok   bool
	}{
		{100, true}, {0, false}, {-1, false},
		{math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		spec := Spec{Rate: tc.rate, NumAnts: 3, NumTx: 1, NumSub: 8}
		if err := spec.validate(); (err == nil) != tc.ok {
			t.Errorf("validate(rate %v): err = %v, want ok=%v", tc.rate, err, tc.ok)
		}
		var buf bytes.Buffer
		if err := WriteOpen(&buf, "s", spec); err != nil {
			t.Fatal(err)
		}
		if _, err := NewWireReader(&buf).Read(); (err == nil) != tc.ok {
			t.Errorf("parseOpen(rate %v): err = %v, want ok=%v", tc.rate, err, tc.ok)
		}
	}
}
