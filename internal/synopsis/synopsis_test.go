package synopsis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"streamkf/internal/gen"
	"streamkf/internal/model"
	"streamkf/internal/stream"
)

func linearModel() model.Model { return model.Linear(1, 1, 0.05, 0.05) }

func TestNewValidation(t *testing.T) {
	if _, err := New(model.Model{}, 1); err == nil {
		t.Fatal("accepted invalid model")
	}
	if _, err := New(linearModel(), 0); err == nil {
		t.Fatal("accepted zero tolerance")
	}
}

func TestAppendValidation(t *testing.T) {
	s, err := New(linearModel(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(stream.Reading{Seq: 0, Values: []float64{1, 2}}); err == nil {
		t.Fatal("accepted wrong arity")
	}
	if err := s.Append(stream.Reading{Seq: 0, Values: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(stream.Reading{Seq: 5, Values: []float64{1}}); err == nil {
		t.Fatal("accepted seq gap")
	}
}

func TestEmptyStore(t *testing.T) {
	s, _ := New(linearModel(), 1)
	if s.Len() != 0 || s.CompressionRatio() != 0 {
		t.Fatal("empty store not empty")
	}
	got, err := s.Reconstruct()
	if err != nil || got != nil {
		t.Fatalf("Reconstruct on empty = %v, %v", got, err)
	}
}

func TestReconstructionWithinTolerance(t *testing.T) {
	data := gen.Ramp(500, 0, 2, 0.1, 7)
	const tol = 1.5
	s, err := New(linearModel(), tol)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAll(data); err != nil {
		t.Fatal(err)
	}
	back, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(data) {
		t.Fatalf("reconstructed %d readings, want %d", len(back), len(data))
	}
	for i := range data {
		if back[i].Seq != data[i].Seq {
			t.Fatalf("seq mismatch at %d", i)
		}
		if d := math.Abs(back[i].Values[0] - data[i].Values[0]); d > tol+1e-9 {
			t.Fatalf("reconstruction error %v at seq %d exceeds tolerance %v", d, i, tol)
		}
	}
}

func TestCompressionOnPredictableStream(t *testing.T) {
	// A near-noiseless ramp under a linear model should compress hard.
	data := gen.Ramp(2000, 0, 1, 0.01, 3)
	s, _ := New(linearModel(), 1)
	if err := s.AppendAll(data); err != nil {
		t.Fatal(err)
	}
	if r := s.CompressionRatio(); r > 0.1 {
		t.Fatalf("compression ratio %v on a predictable stream, want < 0.1", r)
	}
	if s.Corrections() >= s.Len()/10 {
		t.Fatalf("%d corrections for %d readings", s.Corrections(), s.Len())
	}
}

func TestNoCompressionOnWhiteNoise(t *testing.T) {
	// Unpredictable data with a tight tolerance must store nearly
	// everything — the store must not cheat.
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = 100 * rng.NormFloat64()
	}
	s, _ := New(model.Constant(1, 0.05, 0.05), 0.5)
	if err := s.AppendAll(stream.FromValues(vals, 1)); err != nil {
		t.Fatal(err)
	}
	if r := s.CompressionRatio(); r < 0.8 {
		t.Fatalf("compression ratio %v on white noise, suspicious", r)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data := gen.Ramp(300, 5, 1.5, 0.05, 9)
	s, _ := New(linearModel(), 1)
	if err := s.AppendAll(data); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	size, err := s.SizeBytes()
	if err != nil || size != len(blob) {
		t.Fatalf("SizeBytes = %d, %v; want %d", size, err, len(blob))
	}
	resolve := func(name string) (model.Model, error) { return linearModel(), nil }
	back, err := Decode(blob, resolve)
	if err != nil {
		t.Fatal(err)
	}
	origRec, err := s.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	backRec, err := back.Reconstruct()
	if err != nil {
		t.Fatal(err)
	}
	if len(origRec) != len(backRec) {
		t.Fatalf("round-trip length %d vs %d", len(backRec), len(origRec))
	}
	for i := range origRec {
		if origRec[i].Values[0] != backRec[i].Values[0] {
			t.Fatalf("round-trip value mismatch at %d", i)
		}
	}
	// Encoded size must be far below raw storage for predictable data.
	rawBytes := len(data) * 8
	if len(blob) > rawBytes {
		t.Fatalf("encoded %d bytes >= raw %d", len(blob), rawBytes)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte("garbage"), nil); err == nil {
		t.Fatal("decoded garbage")
	}
	s, _ := New(linearModel(), 1)
	if err := s.AppendAll(gen.Ramp(10, 0, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	blob, _ := s.Encode()
	badResolve := func(string) (model.Model, error) { return model.Model{}, errUnknown }
	if _, err := Decode(blob, badResolve); err == nil {
		t.Fatal("decoded with failing resolver")
	}
}

var errUnknown = &unknownErr{}

type unknownErr struct{}

func (*unknownErr) Error() string { return "unknown model" }

// Property: for random walks and random tolerances, reconstruction always
// honours the tolerance and the compression ratio is in (0, 1].
func TestReconstructionToleranceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tol := 0.5 + rng.Float64()*4
		data := gen.RandomWalk(300, 0, 1+rng.Float64()*2, seed)
		s, err := New(linearModel(), tol)
		if err != nil {
			return false
		}
		if err := s.AppendAll(data); err != nil {
			return false
		}
		back, err := s.Reconstruct()
		if err != nil || len(back) != len(data) {
			return false
		}
		for i := range data {
			if math.Abs(back[i].Values[0]-data[i].Values[0]) > tol+1e-9 {
				return false
			}
		}
		r := s.CompressionRatio()
		return r > 0 && r <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeUnknownMagic: anything that does not open with "KSYN" —
// including a gob stream, the format builds before the binary one wrote
// — is a plain decode error.
func TestDecodeUnknownMagic(t *testing.T) {
	resolve := func(string) (model.Model, error) { return linearModel(), nil }
	for _, blob := range [][]byte{nil, []byte("KSY"), []byte("GOB!-not-a-summary"), make([]byte, 64)} {
		if _, err := Decode(blob, resolve); err == nil {
			t.Fatalf("Decode(%q) succeeded, want an error", blob)
		}
	}
}

// TestDecodeDetectsEveryByteFlip: the trailing CRC32C must catch any
// single corrupted byte in a binary summary.
func TestDecodeDetectsEveryByteFlip(t *testing.T) {
	s, _ := New(linearModel(), 1)
	if err := s.AppendAll(gen.Ramp(40, 0, 1.2, 0.3, 4)); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(string) (model.Model, error) { return linearModel(), nil }
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, err := Decode(bad, resolve); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}
