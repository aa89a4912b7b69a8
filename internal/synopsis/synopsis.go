// Package synopsis implements the paper's final future-work item:
// "applications of the Kalman Filter for storing stream summaries under
// the constraint of specified reconstruction error tolerance".
//
// The idea is the storage-side twin of the DKF transmission protocol:
// instead of storing every reading, store the model plus the bootstrap
// measurement plus only the corrections a Kalman filter would have needed
// to stay within the error tolerance. Reconstruction replays the filter
// deterministically, so every reading is recovered within the tolerance
// while storage shrinks by the stream's predictability.
package synopsis

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"streamkf/internal/dsms/wire"
	"streamkf/internal/kalman"
	"streamkf/internal/mat"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

// Point is one stored correction: the measurement the replaying filter
// must fold in at sequence Seq.
type Point struct {
	Seq    int
	Values []float64
}

// Store summarizes one stream under a reconstruction error tolerance.
// The zero value is not usable; construct with New.
type Store struct {
	modelName string
	mdl       model.Model
	tol       float64

	bootSeq     int
	boot        []float64
	corrections []Point
	lastSeq     int
	n           int // readings appended

	filter *kalman.Filter // append-time filter (mirrors the replay)
}

// New returns an empty store summarizing under model m with per-attribute
// reconstruction tolerance tol.
func New(m model.Model, tol float64) (*Store, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("synopsis: %w", err)
	}
	if tol <= 0 {
		return nil, fmt.Errorf("synopsis: tolerance = %v, want > 0", tol)
	}
	return &Store{modelName: m.Name, mdl: m, tol: tol}, nil
}

// Append folds one reading into the summary. Readings must arrive with
// strictly increasing, consecutive sequence numbers.
func (s *Store) Append(r stream.Reading) error {
	if len(r.Values) != s.mdl.MeasDim {
		return fmt.Errorf("synopsis: reading has %d values, model wants %d", len(r.Values), s.mdl.MeasDim)
	}
	if s.filter == nil {
		f, err := s.mdl.NewFilter(r.Values)
		if err != nil {
			return err
		}
		s.filter = f
		s.bootSeq = r.Seq
		s.boot = cloneVals(r.Values)
		s.lastSeq = r.Seq
		s.n = 1
		return nil
	}
	if r.Seq != s.lastSeq+1 {
		return fmt.Errorf("synopsis: non-consecutive seq %d after %d", r.Seq, s.lastSeq)
	}
	s.filter.Coast(1)
	pred := s.filter.PredictedMeasurement().VecSlice()
	if !stream.WithinPrecision(pred, r.Values, s.tol) {
		if err := s.filter.Correct(mat.Vec(r.Values...)); err != nil {
			return err
		}
		s.corrections = append(s.corrections, Point{Seq: r.Seq, Values: cloneVals(r.Values)})
	}
	s.lastSeq = r.Seq
	s.n++
	return nil
}

// AppendAll folds in a whole dataset.
func (s *Store) AppendAll(readings []stream.Reading) error {
	for _, r := range readings {
		if err := s.Append(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of readings summarized.
func (s *Store) Len() int { return s.n }

// Corrections returns how many readings had to be stored verbatim
// (excluding the bootstrap).
func (s *Store) Corrections() int { return len(s.corrections) }

// Tolerance returns the reconstruction tolerance.
func (s *Store) Tolerance() float64 { return s.tol }

// CompressionRatio returns stored points (bootstrap + corrections)
// divided by total readings — lower is better.
func (s *Store) CompressionRatio() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(1+len(s.corrections)) / float64(s.n)
}

// Reconstruct replays the summary into the full reading sequence. Every
// value is within Tolerance of the original per attribute.
func (s *Store) Reconstruct() ([]stream.Reading, error) {
	if s.n == 0 {
		return nil, nil
	}
	f, err := s.mdl.NewFilter(s.boot)
	if err != nil {
		return nil, err
	}
	out := make([]stream.Reading, 0, s.n)
	out = append(out, stream.Reading{Seq: s.bootSeq, Values: cloneVals(s.boot)})
	ci := 0
	for seq := s.bootSeq + 1; seq <= s.lastSeq; seq++ {
		f.Coast(1)
		if ci < len(s.corrections) && s.corrections[ci].Seq == seq {
			// A corrected step stored the exact measurement: emit it
			// verbatim (zero error) while the filter folds it in for the
			// following predictions. Suppressed steps emit the filter's
			// prediction, which the append-time check bounded by the
			// tolerance.
			if err := f.Correct(mat.Vec(s.corrections[ci].Values...)); err != nil {
				return nil, err
			}
			out = append(out, stream.Reading{Seq: seq, Values: cloneVals(s.corrections[ci].Values)})
			ci++
			continue
		}
		out = append(out, stream.Reading{Seq: seq, Values: f.PredictedMeasurement().VecSlice()})
	}
	return out, nil
}

// Encoding. Stores serialize in the same little-endian framed style as
// the DSMS wire protocol, self-delimited and corruption-detecting
// (model referenced by name; decoding resolves it from a
// caller-provided registry, keeping matrices off the wire exactly like
// the DSMS install handshake):
//
//	[4]byte  magic "KSYN"
//	u8       version (synVersion)
//	str      modelName   (u16 length prefix)
//	f64      tol
//	i64      bootSeq
//	u16      len(boot); f64 per value
//	i64      lastSeq
//	i64      n
//	u32      corrections; per correction: i64 seq, u16 len, f64 per value
//	u32      crc (CRC32C over everything before it)

// synMagic opens an encoded Store ("Kalman SYNopsis").
var synMagic = [4]byte{'K', 'S', 'Y', 'N'}

const synVersion = 1

var synCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the summary in the framed binary format above.
func (s *Store) Encode() ([]byte, error) {
	buf := make([]byte, 0, 64+len(s.modelName)+8*len(s.boot)+16*len(s.corrections))
	buf = append(buf, synMagic[:]...)
	buf = append(buf, synVersion)
	var err error
	if buf, err = wire.AppendString(buf, s.modelName); err != nil {
		return nil, fmt.Errorf("synopsis: encode: %w", err)
	}
	buf = wire.AppendF64(buf, s.tol)
	buf = wire.AppendI64(buf, int64(s.bootSeq))
	if len(s.boot) > 0xffff {
		return nil, fmt.Errorf("synopsis: encode: bootstrap dimension %d overflows u16", len(s.boot))
	}
	buf = wire.AppendU16(buf, uint16(len(s.boot)))
	for _, v := range s.boot {
		buf = wire.AppendF64(buf, v)
	}
	buf = wire.AppendI64(buf, int64(s.lastSeq))
	buf = wire.AppendI64(buf, int64(s.n))
	buf = wire.AppendU32(buf, uint32(len(s.corrections)))
	for _, c := range s.corrections {
		buf = wire.AppendI64(buf, int64(c.Seq))
		if len(c.Values) > 0xffff {
			return nil, fmt.Errorf("synopsis: encode: correction dimension %d overflows u16", len(c.Values))
		}
		buf = wire.AppendU16(buf, uint16(len(c.Values)))
		for _, v := range c.Values {
			buf = wire.AppendF64(buf, v)
		}
	}
	buf = wire.AppendU32(buf, crc32.Checksum(buf, synCastagnoli))
	return buf, nil
}

// Decode reconstructs a summary from Encode output, resolving the model
// by name.
func Decode(data []byte, resolve func(name string) (model.Model, error)) (*Store, error) {
	if len(data) < 9 {
		return nil, fmt.Errorf("synopsis: decode: truncated header")
	}
	if [4]byte(data[:4]) != synMagic {
		return nil, fmt.Errorf("synopsis: decode: bad magic (not a synopsis summary)")
	}
	if data[4] != synVersion {
		return nil, fmt.Errorf("synopsis: decode: version %d, this build reads %d", data[4], synVersion)
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, synCastagnoli) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, fmt.Errorf("synopsis: decode: crc mismatch (corrupt)")
	}
	c := wire.NewCursor(body[5:])
	modelName := string(c.Str())
	tol := c.F64()
	bootSeq := int(c.I64())
	nb := int(c.U16())
	if !c.OK() {
		return nil, fmt.Errorf("synopsis: decode: truncated summary")
	}
	boot := make([]float64, nb)
	for i := range boot {
		boot[i] = c.F64()
	}
	lastSeq := int(c.I64())
	n := int(c.I64())
	nc := int(c.U32())
	if !c.OK() || nc > len(data) {
		return nil, fmt.Errorf("synopsis: decode: truncated summary")
	}
	corrections := make([]Point, 0, nc)
	for i := 0; i < nc; i++ {
		p := Point{Seq: int(c.I64())}
		nv := int(c.U16())
		if !c.OK() || nv > len(data) {
			return nil, fmt.Errorf("synopsis: decode: truncated correction")
		}
		p.Values = make([]float64, nv)
		for j := range p.Values {
			p.Values[j] = c.F64()
		}
		corrections = append(corrections, p)
	}
	if !c.Done() {
		return nil, fmt.Errorf("synopsis: decode: malformed summary")
	}
	m, err := resolve(modelName)
	if err != nil {
		return nil, err
	}
	s, err := New(m, tol)
	if err != nil {
		return nil, err
	}
	s.bootSeq, s.boot, s.corrections, s.lastSeq, s.n = bootSeq, boot, corrections, lastSeq, n
	return s, nil
}

// SizeBytes returns the encoded summary size.
func (s *Store) SizeBytes() (int, error) {
	b, err := s.Encode()
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

func cloneVals(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
