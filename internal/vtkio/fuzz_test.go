package vtkio

import (
	"bytes"
	"reflect"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
)

// maxFuzzRawSize caps how much decompressed data one fuzz iteration may
// materialize; a hostile header advertising terabytes is rejected by
// the cap, not by allocating.
const maxFuzzRawSize = 1 << 20

// FuzzOpenReader feeds arbitrary bytes to the file parser. OpenReader
// sits on object-store responses, so corrupt or truncated input must
// produce an error — never a panic — and any header it accepts must be
// safe to drive ReadArrayBytes with (bounded sizes only).
func FuzzOpenReader(f *testing.F) {
	g := grid.NewUniform(4, 4, 4)
	ds := grid.NewDataset(g)
	fld := grid.NewField("v02", g.NumPoints())
	for i := range fld.Values {
		fld.Values[i] = float32(i) * 0.5
	}
	ds.MustAddField(fld)
	for _, kind := range []compress.Kind{compress.None, compress.Gzip, compress.LZ4} {
		var buf bytes.Buffer
		if err := Write(&buf, ds, WriteOptions{Codec: kind, ChunkSize: 64}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// A checksum-bearing sibling so mutations explore the trailing
		// table's geometry (testdata/fuzz holds the out-of-range case).
		buf.Reset()
		if err := Write(&buf, ds, WriteOptions{Codec: kind, ChunkSize: 64, Checksum: true, ChecksumPageSize: 64}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(Magic))
	f.Add([]byte("VND1\x00\x00\x00\x02{}"))
	f.Add([]byte("VND1\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, a := range r.Header().Arrays {
			if a.CompressedSize() > int64(len(data)) || a.RawSize() > maxFuzzRawSize {
				continue
			}
			// Errors are expected on corrupt blocks; panics are not.
			_, _ = r.ReadArrayBytes(a.Name)
		}
	})
}

// FuzzDecodeManifest feeds arbitrary documents to DecodeManifest. A
// manifest is read from the object store with no checksum of its own,
// so garbage must be rejected with an error, never a panic, and any
// manifest it accepts must survive EncodeManifest → DecodeManifest
// unchanged.
func FuzzDecodeManifest(f *testing.F) {
	for _, c := range []struct {
		g      *grid.Uniform
		spec   grid.BrickSpec
		arrays []string
		shards int
	}{
		{manifestGrid(), grid.BrickSpec{NX: 3, NY: 2, NZ: 1, Ghost: 1}, []string{"v02", "v03"}, 3},
		{grid.NewUniform(24, 24, 24), grid.BrickSpec{NX: 3, NY: 1, NZ: 1, Ghost: 1}, []string{"v03"}, 0},
		{grid.NewUniform(9, 7, 1), grid.BrickSpec{NX: 2, NY: 2, NZ: 1}, nil, 2},
	} {
		m, err := BuildManifest(c.g, c.spec, c.arrays, c.shards)
		if err != nil {
			f.Fatal(err)
		}
		m.Entries[0].Checksum = 0xdeadbeef
		data, err := EncodeManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"magic":"vnd-bricks","version":1}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		got, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", got, m)
		}
	})
}
