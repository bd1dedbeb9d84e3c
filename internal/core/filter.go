package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"vizndp/internal/bitset"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
)

// PreFilter is the storage-side half of the split contour filter. It
// scans a full data array and emits the sparse payload the client-side
// post-filter needs. One instance is dedicated to one data array, as in
// the VTK prototype.
type PreFilter struct {
	// Isovalues are the contour values the downstream filter will render;
	// the selection is the union over all of them.
	Isovalues []float64
	// Encoding selects the payload wire format (EncAuto by default).
	Encoding Encoding
}

// PreFilterStats reports what the pre-filter did, mirroring the
// measurements the paper reports (selection rate, reduced transfer size).
type PreFilterStats struct {
	// NumPoints is the full array length.
	NumPoints int
	// SelectedPoints is how many points the contour needs.
	SelectedPoints int
	// RawBytes is the full array's in-memory size.
	RawBytes int64
	// PayloadBytes is the encoded transfer size.
	PayloadBytes int64
	// FilterTime is the time spent scanning and encoding.
	FilterTime time.Duration
}

// Selectivity returns the selected fraction of mesh points.
func (s *PreFilterStats) Selectivity() float64 {
	if s.NumPoints == 0 {
		return 0
	}
	return float64(s.SelectedPoints) / float64(s.NumPoints)
}

// Reduction returns RawBytes/PayloadBytes, the transfer-size reduction
// factor analogous to the paper's Fig. 1.
func (s *PreFilterStats) Reduction() float64 {
	if s.PayloadBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.PayloadBytes)
}

// selectionFilter is the storage-side half of a split filter: a
// selection of the mesh points the client-side half needs. PreFilter
// and RangePreFilter are its implementations; the client fetch, the
// server handler, the coalescer, the payload cache and the degraded
// fallback serve every filter through it.
type selectionFilter interface {
	// wire returns the RPC method and arguments that ask a server to run
	// the filter over one array: (path, array, the filter's own
	// arguments, the encoding name).
	wire(path, array string) (method string, args []any)
	// key folds the filter into a string by exact float bit pattern:
	// two filters share a key exactly when they select the same points
	// and encode them the same way, i.e. produce identical payloads.
	key() string
	encoding() Encoding
	// selectMask runs the filter's own selection scan.
	selectMask(g *grid.Uniform, field *grid.Field) (*bitset.Bitset, error)
	// passes is how many single-isovalue or single-range scan passes
	// selectMask performs, for core.scan.passes.
	passes() int
}

// runFilter is every pre-filter's Run: select, then encode.
func runFilter(f selectionFilter, g *grid.Uniform, field *grid.Field) (*Payload, *PreFilterStats, error) {
	start := time.Now()
	mask, err := f.selectMask(g, field)
	if err != nil {
		return nil, nil, err
	}
	return encodeFiltered(mask, field, f.encoding(), start)
}

// encodeFiltered encodes field's values under mask and accounts the
// result; FilterTime runs from start.
func encodeFiltered(mask *bitset.Bitset, field *grid.Field, enc Encoding, start time.Time) (*Payload, *PreFilterStats, error) {
	payload, err := EncodeSelection(mask, field.Values, enc)
	if err != nil {
		return nil, nil, err
	}
	stats := &PreFilterStats{
		NumPoints:      field.Len(),
		SelectedPoints: payload.Count,
		RawBytes:       int64(4 * field.Len()),
		PayloadBytes:   int64(payload.WireSize()),
		FilterTime:     time.Since(start),
	}
	return payload, stats, nil
}

// bitsKey folds float values into a key string by bit pattern, not by
// formatted decimal: 0.1 and the nearest float to 0.1 share a key only
// when they are the same float.
func bitsKey(vals ...float64) string {
	b := make([]byte, 0, 17*len(vals))
	for _, v := range vals {
		b = strconv.AppendUint(b, math.Float64bits(v), 16)
		b = append(b, ',')
	}
	return string(b)
}

// Run selects and encodes the subset of field needed to contour it at
// the configured isovalues.
func (f *PreFilter) Run(g *grid.Uniform, field *grid.Field) (*Payload, *PreFilterStats, error) {
	return runFilter(f, g, field)
}

func (f *PreFilter) wire(path, array string) (string, []any) {
	isos := make([]any, len(f.Isovalues))
	for i, v := range f.Isovalues {
		isos[i] = v
	}
	return MethodFetch, []any{path, array, isos, f.Encoding.String()}
}

func (f *PreFilter) key() string { return "iso:" + f.Encoding.String() + ":" + bitsKey(f.Isovalues...) }

func (f *PreFilter) encoding() Encoding { return f.Encoding }

func (f *PreFilter) passes() int { return len(f.Isovalues) }

func (f *PreFilter) selectMask(g *grid.Uniform, field *grid.Field) (*bitset.Bitset, error) {
	if len(f.Isovalues) == 0 {
		return nil, errNoIsovalues
	}
	mask, err := contour.SelectCellCorners(g, field.Values, f.Isovalues)
	if err != nil {
		return nil, fmt.Errorf("core: pre-filter %q: %w", field.Name, err)
	}
	return mask, nil
}

var errNoIsovalues = errors.New("core: pre-filter has no isovalues")

// PostFilter is the client-side half: it reconstructs the sparse array
// and completes contour generation. Its isovalues must match the
// pre-filter's (the RPC client keeps them in sync).
type PostFilter struct {
	Isovalues []float64
}

// Reconstruct expands a payload into a NaN-padded field.
func (f *PostFilter) Reconstruct(name string, p *Payload) (*grid.Field, error) {
	vals, err := p.Reconstruct()
	if err != nil {
		return nil, err
	}
	return &grid.Field{Name: name, Values: vals}, nil
}

// Contour reconstructs the payload and extracts the contour, producing
// exactly the mesh a full-array contour would.
func (f *PostFilter) Contour(g *grid.Uniform, name string, p *Payload) (*contour.Mesh, error) {
	if g.NumPoints() != p.NumPoints {
		return nil, fmt.Errorf("core: payload has %d points, grid %q has %d",
			p.NumPoints, g.Dims, g.NumPoints())
	}
	fld, err := f.Reconstruct(name, p)
	if err != nil {
		return nil, err
	}
	return contour.MarchingTetrahedra(g, fld.Values, f.Isovalues)
}

// RangePreFilter is the storage-side half of a split threshold filter —
// the paper's "more filter types" future-work item. It selects every
// corner of every cell with at least one value in [Lo, Hi].
type RangePreFilter struct {
	Lo, Hi   float64
	Encoding Encoding
}

// Run selects and encodes the subset of field the threshold needs.
func (f *RangePreFilter) Run(g *grid.Uniform, field *grid.Field) (*Payload, *PreFilterStats, error) {
	return runFilter(f, g, field)
}

func (f *RangePreFilter) wire(path, array string) (string, []any) {
	return MethodFetchRange, []any{path, array, f.Lo, f.Hi, f.Encoding.String()}
}

func (f *RangePreFilter) key() string {
	return "range:" + f.Encoding.String() + ":" + bitsKey(f.Lo, f.Hi)
}

func (f *RangePreFilter) encoding() Encoding { return f.Encoding }

func (f *RangePreFilter) passes() int { return 1 }

func (f *RangePreFilter) selectMask(g *grid.Uniform, field *grid.Field) (*bitset.Bitset, error) {
	mask, err := contour.SelectRangeCorners(g, field.Values, f.Lo, f.Hi)
	if err != nil {
		return nil, fmt.Errorf("core: range pre-filter %q: %w", field.Name, err)
	}
	return mask, nil
}

// ThresholdFromPayload reconstructs a payload and evaluates the threshold
// filter, producing exactly the cell set a full-array evaluation would.
func ThresholdFromPayload(g *grid.Uniform, p *Payload, lo, hi float64) (*contour.CellSet, error) {
	if g.NumPoints() != p.NumPoints {
		return nil, fmt.Errorf("core: payload has %d points, grid has %d",
			p.NumPoints, g.NumPoints())
	}
	vals, err := p.Reconstruct()
	if err != nil {
		return nil, err
	}
	return contour.ThresholdCells(g, vals, lo, hi)
}

// SplitContour is a convenience that runs the whole split filter locally
// (pre-filter, payload round trip, post-filter) and returns the mesh and
// the pre-filter stats. It exists for tests and for single-node
// pipelines; the distributed path lives in Server/Client.
func SplitContour(g *grid.Uniform, field *grid.Field, isovalues []float64, enc Encoding) (*contour.Mesh, *PreFilterStats, error) {
	pre := &PreFilter{Isovalues: isovalues, Encoding: enc}
	payload, stats, err := pre.Run(g, field)
	if err != nil {
		return nil, nil, err
	}
	// Round-trip through the wire format, as the RPC path would.
	decoded, err := DecodePayload(payload.Data)
	if err != nil {
		return nil, nil, err
	}
	post := &PostFilter{Isovalues: isovalues}
	mesh, err := post.Contour(g, field.Name, decoded)
	if err != nil {
		return nil, nil, err
	}
	return mesh, stats, nil
}
