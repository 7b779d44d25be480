package session

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
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

// TestWireClaimedPayloadAllocBounded: a header that claims a large payload
// and then hangs up must fail without allocating the claimed length; the
// reader's memory follows the bytes that arrive.
func TestWireClaimedPayloadAllocBounded(t *testing.T) {
	var hdr [5]byte
	hdr[0] = MsgFrame
	binary.LittleEndian.PutUint32(hdr[1:], wireMaxPayload)
	wr := NewWireReader(bytes.NewReader(hdr[:]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := wr.Read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("payload claim followed by EOF accepted")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("truncated %d-byte claim allocated %d bytes, want < 1 MiB", wireMaxPayload, d)
	}
}

// TestWireMultiChunkRoundTrip: frames larger than one read chunk decode
// intact, before and after a small frame shrinks the reused buffer's length.
func TestWireMultiChunkRoundTrip(t *testing.T) {
	big, small := wireFrame(8, 4, 600), wireFrame(1, 1, 2) // ~307 KB, 32 B
	var buf bytes.Buffer
	for _, snap := range [][][][]complex128{big, small, big} {
		if err := WriteFrame(&buf, "w", snap, nil); err != nil {
			t.Fatal(err)
		}
	}
	wr := NewWireReader(&buf)
	for i, snap := range [][][][]complex128{big, small, big} {
		m, err := wr.Read()
		if err != nil || m.Type != MsgFrame || len(m.Snap) != len(snap) {
			t.Fatalf("frame %d: %+v err=%v", i, m, err)
		}
		for a := range snap {
			for tx := range snap[a] {
				for k := range snap[a][tx] {
					if m.Snap[a][tx][k] != snap[a][tx][k] {
						t.Fatalf("frame %d snap[%d][%d][%d] = %v, want %v", i, a, tx, k, m.Snap[a][tx][k], snap[a][tx][k])
					}
				}
			}
		}
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

// TestWireTruncatedPayloadIsError: a hangup inside a payload is an
// unexpected EOF, never the clean-hangup io.EOF — also when it falls on a
// read-chunk boundary of a multi-chunk payload.
func TestWireTruncatedPayloadIsError(t *testing.T) {
	var small, big bytes.Buffer
	if err := WriteFrame(&small, "id", wireFrame(2, 1, 3), nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&big, "id", wireFrame(8, 4, 600), nil); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{small.Bytes()[:small.Len()-5], big.Bytes()[:5+wireReadChunk]} {
		_, err := NewWireReader(bytes.NewReader(b)).Read()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("payload truncated after %d bytes: err = %v, want unexpected EOF", len(b)-5, err)
		}
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
