package session

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire protocol between CSI producers and rimserved, little-endian:
//
//	connection preamble: 8 bytes magic "RIMWIRE1"
//	then framed messages:
//	  1 byte  type (MsgOpen | MsgFrame | MsgClose)
//	  4 bytes payload length
//	  n bytes payload
//
//	MsgOpen payload:  id string, rate float64, ants/tx/tones uint16
//	MsgFrame payload: id string, ants/tx/tones uint16,
//	                  ceil(ants/8) bytes missing bitmap,
//	                  ants*tx*tones complex128 rows (re, im float64 pairs)
//	MsgClose payload: id string
//
//	strings: uint16 length + UTF-8 bytes
//
// Every length is validated against a hard cap before allocation, so a
// corrupt or hostile peer cannot OOM the daemon; a malformed message is a
// connection-fatal error (the framing is not self-resynchronizing).
const (
	wireMagic = "RIMWIRE1"

	MsgOpen  byte = 1
	MsgFrame byte = 2
	MsgClose byte = 3

	// wireMaxPayload caps one message (64 MiB admits ~500 antennas of
	// 114-tone 4-tx frames, far beyond any real deployment).
	wireMaxPayload = 64 << 20
	wireMaxID      = 256
	wireMaxDim     = 1024
)

// Msg is one decoded wire message.
type Msg struct {
	Type    byte
	ID      string
	Spec    Spec             // MsgOpen (Rate + shape) and MsgFrame (shape, Rate 0)
	Snap    [][][]complex128 // MsgFrame rows [ant][tx][tone]
	Missing []bool           // MsgFrame per-antenna missing flags
}

// WriteWirePreamble sends the connection magic.
func WriteWirePreamble(w io.Writer) error {
	_, err := io.WriteString(w, wireMagic)
	return err
}

// ReadWirePreamble consumes and verifies the connection magic.
func ReadWirePreamble(r io.Reader) error {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("session: wire preamble: %w", err)
	}
	if string(b[:]) != wireMagic {
		return fmt.Errorf("session: not a RIM wire connection (magic %q)", b[:])
	}
	return nil
}

func putString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func writeMsg(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteOpen frames a MsgOpen.
func WriteOpen(w io.Writer, id string, spec Spec) error {
	if len(id) > wireMaxID {
		return fmt.Errorf("session: id %d bytes exceeds %d", len(id), wireMaxID)
	}
	buf := make([]byte, 0, 2+len(id)+8+6)
	buf = putString(buf, id)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(spec.Rate))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(spec.NumAnts))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(spec.NumTx))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(spec.NumSub))
	return writeMsg(w, MsgOpen, buf)
}

// WriteFrame frames a MsgFrame. snap is [ant][tx][tone]; missing may be
// nil (all present).
func WriteFrame(w io.Writer, id string, snap [][][]complex128, missing []bool) error {
	if len(id) > wireMaxID {
		return fmt.Errorf("session: id %d bytes exceeds %d", len(id), wireMaxID)
	}
	ants := len(snap)
	if ants == 0 {
		return fmt.Errorf("session: empty frame")
	}
	tx := len(snap[0])
	if tx == 0 {
		return fmt.Errorf("session: frame has no tx rows")
	}
	tones := len(snap[0][0])
	bm := (ants + 7) / 8
	buf := make([]byte, 0, 2+len(id)+6+bm+ants*tx*tones*16)
	buf = putString(buf, id)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(ants))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(tx))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(tones))
	bits := make([]byte, bm)
	for a := 0; a < ants; a++ {
		if missing != nil && a < len(missing) && missing[a] {
			bits[a/8] |= 1 << (a % 8)
		}
	}
	buf = append(buf, bits...)
	for a := 0; a < ants; a++ {
		if len(snap[a]) != tx {
			return fmt.Errorf("session: ragged frame at antenna %d", a)
		}
		for t := 0; t < tx; t++ {
			row := snap[a][t]
			if len(row) != tones {
				return fmt.Errorf("session: ragged frame at antenna %d tx %d", a, t)
			}
			for _, c := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(real(c)))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(imag(c)))
			}
		}
	}
	return writeMsg(w, MsgFrame, buf)
}

// WriteClose frames a MsgClose.
func WriteClose(w io.Writer, id string) error {
	if len(id) > wireMaxID {
		return fmt.Errorf("session: id %d bytes exceeds %d", len(id), wireMaxID)
	}
	buf := make([]byte, 0, 2+len(id))
	buf = putString(buf, id)
	return writeMsg(w, MsgClose, buf)
}

// WireReader decodes framed wire messages with bounded allocation. Not
// goroutine-safe; decoded Msg slices are freshly allocated and safe to
// hand off to session queues.
type WireReader struct {
	r   *bufio.Reader
	buf []byte // reused payload buffer
}

// NewWireReader wraps r (after its preamble has been consumed) for message
// decoding.
func NewWireReader(r io.Reader) *WireReader {
	if br, ok := r.(*bufio.Reader); ok {
		return &WireReader{r: br}
	}
	return &WireReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Read decodes the next message. io.EOF at a frame boundary means the peer
// hung up cleanly.
func (wr *WireReader) Read() (*Msg, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(wr.r, hdr[:1]); err != nil {
		return nil, err // io.EOF here = clean hangup
	}
	if _, err := io.ReadFull(wr.r, hdr[1:]); err != nil {
		return nil, fmt.Errorf("session: wire header: %w", err)
	}
	typ := hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > wireMaxPayload {
		return nil, fmt.Errorf("session: wire payload claims %d bytes, cap is %d", n, wireMaxPayload)
	}
	if cap(wr.buf) < int(n) {
		wr.buf = make([]byte, n)
	}
	p := wr.buf[:n]
	if _, err := io.ReadFull(wr.r, p); err != nil {
		return nil, fmt.Errorf("session: wire payload: %w", err)
	}
	switch typ {
	case MsgOpen:
		return parseOpen(p)
	case MsgFrame:
		return parseFrame(p)
	case MsgClose:
		id, rest, err := parseString(p)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("session: MsgClose has %d trailing bytes", len(rest))
		}
		return &Msg{Type: MsgClose, ID: id}, nil
	}
	return nil, fmt.Errorf("session: unknown wire message type %d", typ)
}

func parseString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("session: wire string truncated")
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n > wireMaxID || len(p) < 2+n {
		return "", nil, fmt.Errorf("session: wire string length %d invalid", n)
	}
	return string(p[2 : 2+n]), p[2+n:], nil
}

func parseOpen(p []byte) (*Msg, error) {
	id, p, err := parseString(p)
	if err != nil {
		return nil, err
	}
	if len(p) != 8+6 {
		return nil, fmt.Errorf("session: MsgOpen payload %d bytes, want %d", len(p), 14)
	}
	m := &Msg{Type: MsgOpen, ID: id}
	m.Spec.Rate = math.Float64frombits(binary.LittleEndian.Uint64(p))
	m.Spec.NumAnts = int(binary.LittleEndian.Uint16(p[8:]))
	m.Spec.NumTx = int(binary.LittleEndian.Uint16(p[10:]))
	m.Spec.NumSub = int(binary.LittleEndian.Uint16(p[12:]))
	if err := checkDims(m.Spec.NumAnts, m.Spec.NumTx, m.Spec.NumSub); err != nil {
		return nil, err
	}
	if err := m.Spec.validate(); err != nil {
		return nil, err
	}
	return m, nil
}

func parseFrame(p []byte) (*Msg, error) {
	id, p, err := parseString(p)
	if err != nil {
		return nil, err
	}
	if len(p) < 6 {
		return nil, fmt.Errorf("session: MsgFrame header truncated")
	}
	ants := int(binary.LittleEndian.Uint16(p))
	tx := int(binary.LittleEndian.Uint16(p[2:]))
	tones := int(binary.LittleEndian.Uint16(p[4:]))
	if err := checkDims(ants, tx, tones); err != nil {
		return nil, err
	}
	p = p[6:]
	bm := (ants + 7) / 8
	want := bm + ants*tx*tones*16
	if len(p) != want {
		return nil, fmt.Errorf("session: MsgFrame payload %d bytes, want %d", len(p), want)
	}
	m := &Msg{Type: MsgFrame, ID: id, Spec: Spec{NumAnts: ants, NumTx: tx, NumSub: tones}}
	if ants%8 != 0 && p[bm-1]>>(ants%8) != 0 {
		return nil, fmt.Errorf("session: MsgFrame missing bitmap flags antennas beyond %d", ants)
	}
	m.Missing = make([]bool, ants)
	anyMissing := false
	for a := 0; a < ants; a++ {
		if p[a/8]&(1<<(a%8)) != 0 {
			m.Missing[a] = true
			anyMissing = true
		}
	}
	if !anyMissing {
		m.Missing = nil
	}
	p = p[bm:]
	m.Snap = make([][][]complex128, ants)
	// One backing array for all rows keeps a frame at three allocations.
	flat := make([]complex128, ants*tx*tones)
	for a := 0; a < ants; a++ {
		m.Snap[a] = make([][]complex128, tx)
		for t := 0; t < tx; t++ {
			row := flat[:tones:tones]
			flat = flat[tones:]
			for k := 0; k < tones; k++ {
				re := math.Float64frombits(binary.LittleEndian.Uint64(p))
				im := math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
				p = p[16:]
				row[k] = complex(re, im)
			}
			m.Snap[a][t] = row
		}
	}
	return m, nil
}

func checkDims(ants, tx, tones int) error {
	if ants <= 0 || ants > wireMaxDim || tx <= 0 || tx > wireMaxDim || tones <= 0 || tones > wireMaxDim {
		return fmt.Errorf("session: wire dims (%d antennas, %d tx, %d tones) out of range (0, %d]",
			ants, tx, tones, wireMaxDim)
	}
	return nil
}
