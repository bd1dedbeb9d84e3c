package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

func TestAsFloat(t *testing.T) {
	cases := []struct {
		name string
		in   any
		want float64
		ok   bool
	}{
		{"float64", float64(7.5), 7.5, true},
		{"float32", float32(2.25), 2.25, true},
		{"int64", int64(7), 7, true},
		{"negative int64", int64(-3), -3, true},
		{"uint64", uint64(12), 12, true},
		{"string", "7", 0, false},
		{"nil", nil, 0, false},
		{"bool", true, 0, false},
		{"slice", []any{1.0}, 0, false},
	}
	for _, tc := range cases {
		got, ok := asFloat(tc.in)
		if ok != tc.ok || got != tc.want {
			t.Errorf("asFloat(%s) = (%v, %v), want (%v, %v)",
				tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// argsServer serves a sphere dataset for direct handler invocation.
func argsServer(t *testing.T) *Server {
	t.Helper()
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds,
		vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	return NewServer(os.DirFS(dir))
}

// TestFetchAcceptsIntegerEncodedIsovalues pins the wire-robustness fix:
// msgpack encodes whole numbers as ints, so a client sending isovalue 7
// delivers int64(7), which the handler must accept as 7.0.
func TestFetchAcceptsIntegerEncodedIsovalues(t *testing.T) {
	s := argsServer(t)
	ctx := context.Background()

	asMap := func(v any, err error) map[string]any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v.(map[string]any)
	}

	// Integer-encoded and float-encoded isovalues must select the same
	// points and produce identical payloads.
	intRes := asMap(s.handleFetch(ctx, []any{"ts0.vnd", "d", []any{int64(5)}, "indexvalue"}))
	floatRes := asMap(s.handleFetch(ctx, []any{"ts0.vnd", "d", []any{float64(5)}, "indexvalue"}))
	if string(intRes["payload"].([]byte)) != string(floatRes["payload"].([]byte)) {
		t.Error("int-encoded isovalue payload differs from float-encoded")
	}
	if intRes["selected"].(int64) == 0 {
		t.Error("int-encoded isovalue selected nothing")
	}

	// Mixed numeric kinds in one request, including float32 and uint64.
	asMap(s.handleFetch(ctx, []any{"ts0.vnd", "d",
		[]any{int64(5), float32(6.5), uint64(7)}, "indexvalue"}))

	// Non-numeric isovalues still fail with a typed error.
	if _, err := s.handleFetch(ctx, []any{"ts0.vnd", "d", []any{"7"}, "indexvalue"}); err == nil ||
		!strings.Contains(err.Error(), "want number") {
		t.Errorf("string isovalue error = %v, want 'want number'", err)
	}
}

// TestFetchRangeAcceptsIntegerEncodedBounds does the same for the
// lo/hi bounds of fetchrange.
func TestFetchRangeAcceptsIntegerEncodedBounds(t *testing.T) {
	s := argsServer(t)
	ctx := context.Background()

	cases := []struct {
		name   string
		lo, hi any
	}{
		{"int64 bounds", int64(4), int64(8)},
		{"mixed int/float", int64(4), float64(8)},
		{"uint64/float32", uint64(4), float32(8)},
	}
	var want string
	for i, tc := range cases {
		v, err := s.handleFetchRange(ctx, []any{"ts0.vnd", "d", tc.lo, tc.hi, "indexvalue"})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		payload := string(v.(map[string]any)["payload"].([]byte))
		if i == 0 {
			want = payload
			if len(payload) == 0 {
				t.Fatalf("%s: empty payload", tc.name)
			}
		} else if payload != want {
			t.Errorf("%s: payload differs from int64-bounds payload", tc.name)
		}
	}

	if _, err := s.handleFetchRange(ctx, []any{"ts0.vnd", "d", "4", float64(8), "indexvalue"}); err == nil ||
		!strings.Contains(err.Error(), "want number") {
		t.Errorf("string lo error = %v, want 'want number'", err)
	}
	if _, err := s.handleFetchRange(ctx, []any{"ts0.vnd", "d", float64(4)}); err == nil {
		t.Error("missing hi argument accepted")
	}
}

// TestParseFilterArgs runs both selection-filter wire names through the
// one parser: missing, mistyped and int-encoded arguments.
func TestParseFilterArgs(t *testing.T) {
	cases := []struct {
		name    string
		method  string
		args    []any
		want    selectionFilter // nil when the parse must fail
		wantErr string
	}{
		{"fetch: float isovalues", MethodFetch, []any{"p", "d", []any{5.5}},
			&PreFilter{Isovalues: []float64{5.5}}, ""},
		{"fetch: int-encoded isovalues", MethodFetch, []any{"p", "d", []any{int64(5), uint64(7), float32(6.5)}, "indexvalue"},
			&PreFilter{Isovalues: []float64{5, 7, 6.5}, Encoding: EncIndexValue}, ""},
		{"fetch: missing path", MethodFetch, []any{}, nil, "missing path argument"},
		{"fetch: mistyped path", MethodFetch, []any{int64(1), "d", []any{5.0}}, nil, "path argument is int64, want string"},
		{"fetch: missing array", MethodFetch, []any{"p"}, nil, "missing array argument"},
		{"fetch: missing isovalues", MethodFetch, []any{"p", "d"}, nil, "missing isovalues argument"},
		{"fetch: mistyped isovalues", MethodFetch, []any{"p", "d", 5.0}, nil, "isovalues argument is float64, want array"},
		{"fetch: mistyped isovalue", MethodFetch, []any{"p", "d", []any{5.0, "7"}}, nil, "isovalue 1 is string, want number"},
		{"fetch: mistyped encoding", MethodFetch, []any{"p", "d", []any{5.0}, int64(1)}, nil, "encoding argument is int64, want string"},
		{"fetch: unknown encoding", MethodFetch, []any{"p", "d", []any{5.0}, "zip"}, nil, "unknown encoding"},
		{"fetchrange: float bounds", MethodFetchRange, []any{"p", "d", 4.0, 8.0, "blockbitmap"},
			&RangePreFilter{Lo: 4, Hi: 8, Encoding: EncBlockBitmap}, ""},
		{"fetchrange: int-encoded bounds", MethodFetchRange, []any{"p", "d", int64(4), uint64(8)},
			&RangePreFilter{Lo: 4, Hi: 8}, ""},
		{"fetchrange: missing path", MethodFetchRange, []any{}, nil, "missing path argument"},
		{"fetchrange: missing hi", MethodFetchRange, []any{"p", "d", 4.0}, nil, "needs lo and hi arguments"},
		{"fetchrange: mistyped lo", MethodFetchRange, []any{"p", "d", "4", 8.0}, nil, "lo argument is string, want number"},
		{"fetchrange: mistyped hi", MethodFetchRange, []any{"p", "d", 4.0, []any{8.0}}, nil, "hi argument is []interface {}, want number"},
		{"fetchrange: mistyped encoding", MethodFetchRange, []any{"p", "d", 4.0, 8.0, 1.0}, nil, "encoding argument is float64, want string"},
		{"not a filter method", MethodFetchSlice, []any{"p", "d"}, nil, "not a selection-filter method"},
	}
	for _, tc := range cases {
		path, array, f, err := parseFilter(tc.method, tc.args)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if path != "p" || array != "d" || !reflect.DeepEqual(f, tc.want) {
			t.Errorf("%s: parsed (%q, %q, %#v), want (p, d, %#v)", tc.name, path, array, f, tc.want)
		}
	}
}
