package lz4

import (
	"bytes"
	"testing"
)

// maxFuzzSize caps the decompressed size one fuzz iteration may request,
// so a hostile size field costs a rejection, not an allocation.
const maxFuzzSize = 1 << 20

// FuzzDecompress feeds arbitrary blocks and sizes to Decompress. Stored
// blocks are only verified when their object carries checksums, so the
// decoder must reject garbage with an error, never panic, and a nil
// error must mean exactly the requested number of bytes came out.
func FuzzDecompress(f *testing.F) {
	for _, src := range [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcabcabcabcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("near-data pre-filtering "), 40),
	} {
		f.Add(Compress(src), uint32(len(src)))
	}
	f.Add([]byte{0xf0, 0xff, 0xff}, uint32(64))

	f.Fuzz(func(t *testing.T, src []byte, size uint32) {
		n := int(size % maxFuzzSize)
		out, err := Decompress(src, n)
		if err == nil && len(out) != n {
			t.Fatalf("nil error with %d bytes out, want %d", len(out), n)
		}
	})
}
