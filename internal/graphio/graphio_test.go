package graphio

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

func sameGraph(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	same := true
	a.Edges(func(u, v int) {
		if !b.HasEdge(u, v) {
			same = false
		}
	})
	return same
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := graph.Gnp(100, 0.05, xrand.New(1))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, got) {
		t.Fatal("edge-list round trip changed the graph")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := graph.Gnp(80, 0.08, xrand.New(2))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, got) {
		t.Fatal("JSON round trip changed the graph")
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\nn 4\n0 1\n# another\n2 3\n\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"no header", "0 1\n", "graphio: line 1: edge before 'n <count>' header"},
		{"missing header", "", "graphio: no 'n <count>' header found"},
		{"comments only", "# a\n\n  # b\n", "graphio: no 'n <count>' header found"},
		{"double header", "n 3\nn 3\n", "graphio: line 2: duplicate header"},
		{"bad count", "n x\n", `graphio: line 1: bad vertex count "x"`},
		{"negative count", "n -1\n", `graphio: line 1: bad vertex count "-1"`},
		{"malformed header", "n 3 4\n", `graphio: line 1: malformed header "n 3 4"`},
		{"bare header", "n\n", `graphio: line 1: malformed header "n"`},
		{"padded header", "# c\n\n \tn 3 4 \r\n", `graphio: line 3: malformed header "n 3 4"`},
		{"self-loop", "n 3\n1 1\n", "graphio: line 2: self-loop at 1"},
		{"out of range", "n 3\n0 3\n", "graphio: line 2: edge {0,3} out of range [0,3)"},
		{"negative", "n 3\n-1 0\n", "graphio: line 2: edge {-1,0} out of range [0,3)"},
		{"non-integer", "n 3\na b\n", `graphio: line 2: non-integer endpoints "a b"`},
		{"half integer", "n 3\n0 1x\n", `graphio: line 2: non-integer endpoints "0 1x"`},
		{"overflow", "n 3\n0 99999999999999999999\n", `graphio: line 2: non-integer endpoints "0 99999999999999999999"`},
		{"triple edge", "n 3\n0 1 2\n", `graphio: line 2: malformed edge "0 1 2"`},
		{"single endpoint", "n 3\n\t0 \n", `graphio: line 2: malformed edge "0"`},
		{"trailing comment", "n 3\n0 1 # c\n", `graphio: line 2: malformed edge "0 1 # c"`},
		{"no-break space", "n 3\n0\u00a01 2\n", `graphio: line 2: malformed edge "0\u00a01 2"`},
		{"late line", "# c\nn 4\n\n0 1\r\n# d\n2 2\n", "graphio: line 6: self-loop at 2"},
		{"crlf range", "n 3\r\n0 1\r\n2 7\r\n", "graphio: line 3: edge {2,7} out of range [0,3)"},
		// Vertex ids are int32: a larger count is rejected at its header,
		// before anything is allocated for it.
		{"huge count", "n 3000000000\n0 2147483648\n", "graphio: line 1: vertex count 3000000000 exceeds math.MaxInt32"},
		{"int32 overflow", "# c\nn 2147483648\n", "graphio: line 2: vertex count 2147483648 exceeds math.MaxInt32"},
	}
	for _, c := range cases {
		_, err := ReadEdgeList(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: no error", c.name)
		} else if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

// TestReadEdgeListAcceptedForms pins the inputs the reader accepts beyond
// WriteEdgeList's own output: every form below is the path 0-1-2-3.
func TestReadEdgeListAcceptedForms(t *testing.T) {
	want := graph.Path(4)
	cases := map[string]string{
		"plain":            "n 4\n0 1\n1 2\n2 3\n",
		"crlf":             "n 4\r\n0 1\r\n1 2\r\n2 3\r\n",
		"tabs and runs":    "n\t4\n0\t1\n1  \t 2\n2\t\t3\n",
		"padded":           "  n 4  \n\t0 1\t\n 1 2 \n   2 3\n",
		"plus signs":       "n +4\n+0 1\n1 +2\n+2 +3\n",
		"reversed":         "n 4\n1 0\n2 1\n3 2\n",
		"duplicates":       "n 4\n0 1\n1 0\n1 2\n0 1\n2 3\n3 2\n",
		"comments after":   "n 4\n# edges\n0 1\n  # indented\n1 2\n\n2 3\n# end",
		"no final newline": "n 4\n0 1\n1 2\n2 3",
		"unicode spaces":   "n\u00a04\n0\u20001\n\u30001 2\u2028\n2\v3\f\n",
	}
	for name, in := range cases {
		got, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !sameGraph(want, got) {
			t.Errorf("%s: got %v, want the path on 4 vertices", name, got)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":      "{",
		"negative n":   `{"n": -1, "edges": []}`,
		"self-loop":    `{"n": 3, "edges": [[1,1]]}`,
		"out of range": `{"n": 3, "edges": [[0,5]]}`,
		"huge n":       `{"n": 3000000000, "edges": [[0,2147483648]]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestEmptyGraphRoundTrips(t *testing.T) {
	g := graph.Empty(5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 5 || got.M() != 0 {
		t.Fatal("empty graph round trip failed")
	}
	buf.Reset()
	if err := WriteJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got2.N() != 5 || got2.M() != 0 {
		t.Fatal("empty JSON round trip failed")
	}
}

// Property: both formats round-trip arbitrary random graphs.
func TestRoundTripProperty(t *testing.T) {
	master := xrand.New(3)
	f := func(seed uint64) bool {
		r := master.Split(seed)
		n := 1 + r.Intn(60)
		g := graph.Gnp(n, r.Float64()*0.4, r)
		var b1, b2 bytes.Buffer
		if WriteEdgeList(&b1, g) != nil || WriteJSON(&b2, g) != nil {
			return false
		}
		g1, err1 := ReadEdgeList(&b1)
		g2, err2 := ReadJSON(&b2)
		return err1 == nil && err2 == nil && sameGraph(g, g1) && sameGraph(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
