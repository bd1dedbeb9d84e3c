package compress

import (
	"bytes"
	"math"
	"testing"
)

// maxFuzzSize caps the decompressed size one fuzz iteration may request,
// so a hostile size field costs a rejection, not an allocation.
const maxFuzzSize = 1 << 20

// fuzzFloats is float32 data shaped like a simulation field: a smooth
// ramp with a NaN and an infinity among the values.
func fuzzFloats() []byte {
	vals := make([]float32, 256)
	for i := range vals {
		vals[i] = float32(i) * 0.01
	}
	vals[17] = float32(math.NaN())
	vals[99] = float32(math.Inf(1))
	return floatsToBytes(vals)
}

// fuzzDecompress seeds f with round-trips of c and checks the codec
// contract on arbitrary input: an error or exactly size bytes, never a
// panic. Stored blocks are only verified when their object carries
// checksums, so the decoders see raw bytes.
func fuzzDecompress(f *testing.F, c Codec) {
	for _, src := range [][]byte{
		nil,
		fuzzFloats(),
		bytes.Repeat([]byte{0, 0, 128, 63}, 512),
	} {
		comp, err := c.Compress(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, uint32(len(src)))
	}
	f.Fuzz(func(t *testing.T, src []byte, size uint32) {
		n := int(size % maxFuzzSize)
		out, err := c.Decompress(src, n)
		if err == nil && len(out) != n {
			t.Fatalf("nil error with %d bytes out, want %d", len(out), n)
		}
	})
}

func FuzzGzipDecompress(f *testing.F) { fuzzDecompress(f, MustByKind(Gzip)) }

func FuzzQLZ4Decompress(f *testing.F) { fuzzDecompress(f, QuantizedLZ4(0.001)) }
