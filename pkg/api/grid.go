package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ---------------------------------------------------------------------------
// Parameter grids
//
// A Grid declares a cartesian product of overrides applied to a base request
// body: each Axis names a path into the body's JSON and the values that path
// sweeps over. Grids are plain data (no maps), so they participate in the
// canonical content hash (see Hash) exactly like the spec types, and their
// point enumeration is a pure function of the grid — the property sweep
// determinism rests on.

// Axis is one dimension of a parameter grid: a path into the base request's
// JSON (dot-separated object keys and array indices, e.g.
// "mg1.spec.classes.0.rate") and the numeric values it takes.
type Axis struct {
	Path   string    `json:"path"`
	Values []float64 `json:"values"`
}

// Grid is a cartesian product of axes. The zero grid is valid and has
// exactly one point (no overrides). Points are enumerated in row-major
// order: the LAST axis varies fastest, so point index
//
//	i = ((v0*len1 + v1)*len2 + v2)...
//
// where vk is the value index chosen on axis k.
type Grid struct {
	Axes []Axis `json:"axes,omitempty"`
}

// Validate rejects empty paths, empty or non-finite value lists, and
// duplicate paths (which would make the override order ambiguous).
func (g *Grid) Validate() error {
	seen := make(map[string]bool, len(g.Axes))
	for i, a := range g.Axes {
		if a.Path == "" {
			return fmt.Errorf("api: grid axis %d has an empty path", i)
		}
		if seen[a.Path] {
			return fmt.Errorf("api: grid repeats path %q", a.Path)
		}
		seen[a.Path] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("api: grid axis %q has no values", a.Path)
		}
		for j, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("api: grid axis %q value %d is not finite", a.Path, j)
			}
		}
	}
	return nil
}

// Size returns the number of grid points (1 for the empty grid),
// saturating at math.MaxInt so that callers bounding the product can never
// be fooled by overflow.
func (g *Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		if len(a.Values) == 0 {
			return 0
		}
		if n > math.MaxInt/len(a.Values) {
			return math.MaxInt
		}
		n *= len(a.Values)
	}
	return n
}

// Point decodes point index i (0 ≤ i < Size) into one value per axis, in
// axis order, with the last axis varying fastest.
func (g *Grid) Point(i int) []float64 {
	if i < 0 || i >= g.Size() {
		panic(fmt.Sprintf("api: grid point %d outside [0, %d)", i, g.Size()))
	}
	out := make([]float64, len(g.Axes))
	for k := len(g.Axes) - 1; k >= 0; k-- {
		n := len(g.Axes[k].Values)
		out[k] = g.Axes[k].Values[i%n]
		i /= n
	}
	return out
}

// Apply returns base with the point's value substituted at every axis path.
// Untouched parts of the document round-trip through json.Number, so digits
// the grid does not own are preserved byte-for-byte in value (the result is
// re-encoded, so key order and whitespace follow encoding/json; consumers
// re-parse into canonical typed structs before hashing).
func (g *Grid) Apply(base []byte, point []float64) ([]byte, error) {
	if len(point) != len(g.Axes) {
		return nil, fmt.Errorf("api: point has %d values for %d axes", len(point), len(g.Axes))
	}
	doc, err := decodeTree(base)
	if err != nil {
		return nil, err
	}
	for k, a := range g.Axes {
		v := json.Number(strconv.FormatFloat(point[k], 'g', -1, 64))
		if doc, err = setPath(doc, strings.Split(a.Path, "."), v); err != nil {
			return nil, fmt.Errorf("api: axis %q: %w", a.Path, err)
		}
	}
	return json.Marshal(doc)
}

// SetString returns base with the string value substituted at path — the
// override used for non-numeric knobs such as the simulate policy.
func SetString(base []byte, path, value string) ([]byte, error) {
	return setDocument(base, path, value)
}

// SetNumber returns base with the numeric value substituted at path,
// formatted exactly as a Grid.Apply override would format it. Clients use
// it to inject knobs such as "parallel" into otherwise untouched raw
// request bodies.
func SetNumber(base []byte, path string, value float64) ([]byte, error) {
	return setDocument(base, path, json.Number(strconv.FormatFloat(value, 'g', -1, 64)))
}

// SetInt returns base with the integer value substituted at path in plain
// decimal — the form required by unsigned wire fields such as "seed",
// which reject the exponent notation SetNumber may produce.
func SetInt(base []byte, path string, value uint64) ([]byte, error) {
	return setDocument(base, path, json.Number(strconv.FormatUint(value, 10)))
}

func setDocument(base []byte, path string, value any) ([]byte, error) {
	doc, err := decodeTree(base)
	if err != nil {
		return nil, err
	}
	if doc, err = setPath(doc, strings.Split(path, "."), value); err != nil {
		return nil, fmt.Errorf("api: path %q: %w", path, err)
	}
	return json.Marshal(doc)
}

// decodeTree parses base into a generic JSON tree with numbers kept as
// json.Number, so re-encoding does not reformat them.
func decodeTree(base []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(base))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("api: parsing base document: %w", err)
	}
	if Trailing(dec, base) {
		return nil, fmt.Errorf("api: trailing data after base document")
	}
	return doc, nil
}

// Trailing reports whether anything but JSON whitespace follows the value
// dec just decoded from body. Decoder.More alone misses a stray ']' or '}',
// which it takes for the end of an enclosing value.
func Trailing(dec *json.Decoder, body []byte) bool {
	return len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// setPath walks node along segs and substitutes value at the final segment,
// returning the (possibly replaced) node. Intermediate segments must exist;
// the final segment may create a new object key (the typed re-parse rejects
// keys the request schema does not know) but never a new array slot.
func setPath(node any, segs []string, value any) (any, error) {
	if len(segs) == 0 {
		return value, nil
	}
	seg, rest := segs[0], segs[1:]
	switch n := node.(type) {
	case map[string]any:
		child, ok := n[seg]
		if !ok && len(rest) > 0 {
			return nil, fmt.Errorf("key %q not present", seg)
		}
		v, err := setPath(child, rest, value)
		if err != nil {
			return nil, err
		}
		n[seg] = v
		return n, nil
	case []any:
		i, err := strconv.Atoi(seg)
		if err != nil {
			return nil, fmt.Errorf("segment %q indexes an array (want an integer)", seg)
		}
		if i < 0 || i >= len(n) {
			return nil, fmt.Errorf("index %d outside array of length %d", i, len(n))
		}
		v, err := setPath(n[i], rest, value)
		if err != nil {
			return nil, err
		}
		n[i] = v
		return n, nil
	default:
		return nil, fmt.Errorf("segment %q descends into a non-container value", seg)
	}
}
