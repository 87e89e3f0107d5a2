// Package graphio reads and writes graphs in two interchange formats, so
// experiments can run on external graphs and generated workloads can be
// exported for other tools:
//
//   - Edge-list text: "n <vertices>" header, then one "u v" pair per line;
//     '#' comments and blank lines are ignored. The de-facto standard of
//     SNAP/DIMACS-style datasets.
//
//   - JSON: {"n": 5, "edges": [[0,1], ...]} for structured pipelines.
package graphio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

	"ssmis/internal/graph"
)

// WriteEdgeList writes g in edge-list text format.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# ssmis edge list: %d vertices, %d edges\nn %d\n", g.N(), g.M(), g.N()); err != nil {
		return fmt.Errorf("graphio: write header: %w", err)
	}
	var writeErr error
	g.Edges(func(u, v int) {
		if writeErr != nil {
			return
		}
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		return fmt.Errorf("graphio: write edge: %w", writeErr)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("graphio: flush: %w", err)
	}
	return nil
}

// ReadEdgeList parses the edge-list text format. The "n <count>" header is
// required before the first edge; vertices outside [0, n) are an error, and
// so is a count above math.MaxInt32, the largest the graph's int32 vertex
// ids can index. Fields are separated by the whitespace strings.Fields
// splits on, and each line is parsed in place in the scanner's buffer.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *graph.Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		f0, rest := nextField(line)
		if len(f0) == 0 || f0[0] == '#' {
			continue
		}
		f1, rest := nextField(rest)
		f2, _ := nextField(rest)
		twoFields := len(f1) > 0 && len(f2) == 0
		if string(f0) == "n" {
			if b != nil {
				return nil, fmt.Errorf("graphio: line %d: duplicate header", lineNo)
			}
			if !twoFields {
				return nil, fmt.Errorf("graphio: line %d: malformed header %q", lineNo, bytes.TrimSpace(line))
			}
			n, err := strconv.Atoi(string(f1))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graphio: line %d: bad vertex count %q", lineNo, f1)
			}
			if n > math.MaxInt32 {
				return nil, fmt.Errorf("graphio: line %d: vertex count %d exceeds math.MaxInt32", lineNo, n)
			}
			b = graph.NewBuilder(n)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("graphio: line %d: edge before 'n <count>' header", lineNo)
		}
		if !twoFields {
			return nil, fmt.Errorf("graphio: line %d: malformed edge %q", lineNo, bytes.TrimSpace(line))
		}
		u, err1 := strconv.Atoi(string(f0))
		v, err2 := strconv.Atoi(string(f1))
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("graphio: line %d: non-integer endpoints %q", lineNo, bytes.TrimSpace(line))
		}
		if u == v {
			return nil, fmt.Errorf("graphio: line %d: self-loop at %d", lineNo, u)
		}
		if u < 0 || v < 0 || u >= b.N() || v >= b.N() {
			return nil, fmt.Errorf("graphio: line %d: edge {%d,%d} out of range [0,%d)", lineNo, u, v, b.N())
		}
		b.AddEdge(u, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: scan: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graphio: no 'n <count>' header found")
	}
	return b.Build(), nil
}

// nextField returns the first field of s and the remainder after it,
// splitting on unicode.IsSpace as strings.Fields does. The field is empty
// when s holds only whitespace.
func nextField(s []byte) (field, rest []byte) {
	start := skip(s, true)
	end := start + skip(s[start:], false)
	return s[start:end], s[end:]
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skip returns the length of the longest prefix of s whose runes are all
// whitespace (space true) or all non-whitespace (space false).
func skip(s []byte, space bool) int {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != space {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if unicode.IsSpace(r) != space {
			break
		}
		i += size
	}
	return i
}

// jsonGraph is the JSON interchange shape.
type jsonGraph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// WriteJSON writes g as {"n":..., "edges":[[u,v],...]}.
func WriteJSON(w io.Writer, g *graph.Graph) error {
	jg := jsonGraph{N: g.N(), Edges: make([][2]int, 0, g.M())}
	g.Edges(func(u, v int) {
		jg.Edges = append(jg.Edges, [2]int{u, v})
	})
	enc := json.NewEncoder(w)
	if err := enc.Encode(jg); err != nil {
		return fmt.Errorf("graphio: encode json: %w", err)
	}
	return nil
}

// ReadJSON parses the JSON interchange format.
func ReadJSON(r io.Reader) (*graph.Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("graphio: decode json: %w", err)
	}
	if jg.N < 0 {
		return nil, fmt.Errorf("graphio: negative vertex count %d", jg.N)
	}
	if jg.N > math.MaxInt32 {
		return nil, fmt.Errorf("graphio: vertex count %d exceeds math.MaxInt32", jg.N)
	}
	b := graph.NewBuilder(jg.N)
	for i, e := range jg.Edges {
		u, v := e[0], e[1]
		if u == v {
			return nil, fmt.Errorf("graphio: edge %d: self-loop at %d", i, u)
		}
		if u < 0 || v < 0 || u >= jg.N || v >= jg.N {
			return nil, fmt.Errorf("graphio: edge %d: {%d,%d} out of range [0,%d)", i, u, v, jg.N)
		}
		b.AddEdge(u, v)
	}
	return b.Build(), nil
}
