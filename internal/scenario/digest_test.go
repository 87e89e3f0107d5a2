package scenario

// Every registered graph family, pinned: each (family, n, seed) cell must
// build exactly the CSR recorded below. Generators and the builder may be
// rewritten for speed, but the same seed must keep giving the same graph,
// since every experiment table and the golden coin lineage depend on it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/graphio"
)

// csrDigest hashes N(), then each vertex's degree and sorted neighbour
// list in vertex order.
func csrDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	buf := binary.LittleEndian.AppendUint64(nil, uint64(g.N()))
	for u := 0; u < g.N(); u++ {
		nbrs := g.Neighbors(u)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nbrs)))
		for _, v := range nbrs {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// digestParams binds each family's parameters; gnp appears twice, once on
// each side of its sparse/dense threshold (p ≤ 0.25 skips geometrically,
// p > 0.25 flips a coin per pair).
var digestParams = []struct {
	family string
	label  string
	params map[string]float64
}{
	{"complete", "", nil},
	{"path", "", nil},
	{"cycle", "", nil},
	{"star", "", nil},
	{"grid", "", nil},
	{"torus", "", nil},
	{"caterpillar", "", nil},
	{"disjoint-cliques", "", nil},
	{"random-tree", "", nil},
	{"prufer-tree", "", nil},
	{"gnp", "p=0.25", map[string]float64{"p": 0.25}},
	{"gnp", "p=0.3", map[string]float64{"p": 0.3}},
	{"gnp-avg", "avgdeg=10", map[string]float64{"avgdeg": 10}},
	{"chung-lu", "avgdeg=10", map[string]float64{"avgdeg": 10}},
	{"random-regular", "degree=4", map[string]float64{"degree": 4}},
	{"degeneracy", "k=3", map[string]float64{"k": 3}},
	{"watts-strogatz", "", nil},
}

// wantDigests was recorded before the sparse G(n,p) row walk, the
// sort-free CSR build and the in-place edge-list parser.
var wantDigests = map[string]uint64{
	"caterpillar/n=300/seed=1":                            0xdf5b171b86dbbc06,
	"caterpillar/n=300/seed=2":                            0xdf5b171b86dbbc06,
	"caterpillar/n=300/seed=3":                            0xdf5b171b86dbbc06,
	"caterpillar/n=3000/seed=1":                           0xf656e413eab96576,
	"caterpillar/n=3000/seed=2":                           0xf656e413eab96576,
	"caterpillar/n=3000/seed=3":                           0xf656e413eab96576,
	"chung-lu,avgdeg=10/n=300/seed=1":                     0x7b3eb37bdbc72832,
	"chung-lu,avgdeg=10/n=300/seed=2":                     0x5b6b629c3043f185,
	"chung-lu,avgdeg=10/n=300/seed=3":                     0x4d69a1ad1b8006ea,
	"chung-lu,avgdeg=10/n=3000/seed=1":                    0x56cfd0860010ec89,
	"chung-lu,avgdeg=10/n=3000/seed=2":                    0xd6834dc40515c0dc,
	"chung-lu,avgdeg=10/n=3000/seed=3":                    0x575b75bd7f417213,
	"complete/n=300/seed=1":                               0xd95392e78cebdc76,
	"complete/n=300/seed=2":                               0xd95392e78cebdc76,
	"complete/n=300/seed=3":                               0xd95392e78cebdc76,
	"complete/n=3000/seed=1":                              0xafeb62f350b8b6b4,
	"complete/n=3000/seed=2":                              0xafeb62f350b8b6b4,
	"complete/n=3000/seed=3":                              0xafeb62f350b8b6b4,
	"cycle/n=300/seed=1":                                  0xd064771cae0a66e2,
	"cycle/n=300/seed=2":                                  0xd064771cae0a66e2,
	"cycle/n=300/seed=3":                                  0xd064771cae0a66e2,
	"cycle/n=3000/seed=1":                                 0x143b1adf9168193c,
	"cycle/n=3000/seed=2":                                 0x143b1adf9168193c,
	"cycle/n=3000/seed=3":                                 0x143b1adf9168193c,
	"degeneracy,k=3/n=300/seed=1":                         0xcc3d1b2e642ab957,
	"degeneracy,k=3/n=300/seed=2":                         0x2bd93f4bcdf4c931,
	"degeneracy,k=3/n=300/seed=3":                         0x2c7a3c9a73643d9a,
	"degeneracy,k=3/n=3000/seed=1":                        0xc2b71836c3b8a4c4,
	"degeneracy,k=3/n=3000/seed=2":                        0x04b5e484585c52ed,
	"degeneracy,k=3/n=3000/seed=3":                        0xd09ded4a4a11d007,
	"disjoint-cliques/n=300/seed=1":                       0x5a49c088852e724f,
	"disjoint-cliques/n=300/seed=2":                       0x5a49c088852e724f,
	"disjoint-cliques/n=300/seed=3":                       0x5a49c088852e724f,
	"disjoint-cliques/n=3000/seed=1":                      0xc7452b5dbc36c574,
	"disjoint-cliques/n=3000/seed=2":                      0xc7452b5dbc36c574,
	"disjoint-cliques/n=3000/seed=3":                      0xc7452b5dbc36c574,
	"edgelist-roundtrip,chung-lu,avgdeg=10/n=3000/seed=1": 0x56cfd0860010ec89,
	"gnp,p=0.25/n=300/seed=1":                             0xc9d579295eb9058f,
	"gnp,p=0.25/n=300/seed=2":                             0x3434b493c2d9dfcc,
	"gnp,p=0.25/n=300/seed=3":                             0xba5c5901973ef76b,
	"gnp,p=0.25/n=3000/seed=1":                            0xbe1d9c133742d917,
	"gnp,p=0.25/n=3000/seed=2":                            0xbb341ea319a7851a,
	"gnp,p=0.25/n=3000/seed=3":                            0x4253887a0df745d6,
	"gnp,p=0.3/n=300/seed=1":                              0x5f57b5efca8075a5,
	"gnp,p=0.3/n=300/seed=2":                              0xbdb2e3933d3cf4d6,
	"gnp,p=0.3/n=300/seed=3":                              0x9090e23c6c1bb2dd,
	"gnp,p=0.3/n=3000/seed=1":                             0x30923a29e927169a,
	"gnp,p=0.3/n=3000/seed=2":                             0xeb8fa0e5e409737b,
	"gnp,p=0.3/n=3000/seed=3":                             0x813a0c7edcc47d1b,
	"gnp-avg,avgdeg=10/n=300/seed=1":                      0x8fd3aa21f8e3dc90,
	"gnp-avg,avgdeg=10/n=300/seed=2":                      0x2591d969c6cadce0,
	"gnp-avg,avgdeg=10/n=300/seed=3":                      0xc0f9916ff63e6b51,
	"gnp-avg,avgdeg=10/n=3000/seed=1":                     0x8f7e0ba1ce00a709,
	"gnp-avg,avgdeg=10/n=3000/seed=2":                     0x81847344f9cf3d7b,
	"gnp-avg,avgdeg=10/n=3000/seed=3":                     0xc087f7202b19cc2c,
	"grid/n=300/seed=1":                                   0x20ca0a4b46e7c3db,
	"grid/n=300/seed=2":                                   0x20ca0a4b46e7c3db,
	"grid/n=300/seed=3":                                   0x20ca0a4b46e7c3db,
	"grid/n=3000/seed=1":                                  0x562759ec90108c21,
	"grid/n=3000/seed=2":                                  0x562759ec90108c21,
	"grid/n=3000/seed=3":                                  0x562759ec90108c21,
	"path/n=300/seed=1":                                   0x241c542fd60c14f6,
	"path/n=300/seed=2":                                   0x241c542fd60c14f6,
	"path/n=300/seed=3":                                   0x241c542fd60c14f6,
	"path/n=3000/seed=1":                                  0x37ddee915470749e,
	"path/n=3000/seed=2":                                  0x37ddee915470749e,
	"path/n=3000/seed=3":                                  0x37ddee915470749e,
	"prufer-tree/n=300/seed=1":                            0xe05ac58266776bb4,
	"prufer-tree/n=300/seed=2":                            0x0d5a912a1a17814f,
	"prufer-tree/n=300/seed=3":                            0x140cacbee1e0c435,
	"prufer-tree/n=3000/seed=1":                           0xa97e17b4c207a41a,
	"prufer-tree/n=3000/seed=2":                           0x75935bcd31072f51,
	"prufer-tree/n=3000/seed=3":                           0x151d12e6b47cfbf0,
	"random-regular,degree=4/n=300/seed=1":                0x8aabb73190051372,
	"random-regular,degree=4/n=300/seed=2":                0x9123f8335fd145be,
	"random-regular,degree=4/n=300/seed=3":                0xb50b360c48d7a9ee,
	"random-regular,degree=4/n=3000/seed=1":               0x06a2558d5311b8d8,
	"random-regular,degree=4/n=3000/seed=2":               0xf21a91b08bb024ec,
	"random-regular,degree=4/n=3000/seed=3":               0xf02e480a3f957f60,
	"random-tree/n=300/seed=1":                            0x78041970615a21cb,
	"random-tree/n=300/seed=2":                            0xe43743aab61414e0,
	"random-tree/n=300/seed=3":                            0xbd09a4d45a46d62b,
	"random-tree/n=3000/seed=1":                           0x33e2250c442bdc79,
	"random-tree/n=3000/seed=2":                           0x8fc28c764a5e0e5c,
	"random-tree/n=3000/seed=3":                           0x93a1946b71e6dc59,
	"star/n=300/seed=1":                                   0x2725622ce6136ddf,
	"star/n=300/seed=2":                                   0x2725622ce6136ddf,
	"star/n=300/seed=3":                                   0x2725622ce6136ddf,
	"star/n=3000/seed=1":                                  0xf11355c212bdf057,
	"star/n=3000/seed=2":                                  0xf11355c212bdf057,
	"star/n=3000/seed=3":                                  0xf11355c212bdf057,
	"torus/n=300/seed=1":                                  0xbb161155365ed847,
	"torus/n=300/seed=2":                                  0xbb161155365ed847,
	"torus/n=300/seed=3":                                  0xbb161155365ed847,
	"torus/n=3000/seed=1":                                 0x536de4296535e834,
	"torus/n=3000/seed=2":                                 0x536de4296535e834,
	"torus/n=3000/seed=3":                                 0x536de4296535e834,
	"watts-strogatz/n=300/seed=1":                         0x90711f2e5b14e745,
	"watts-strogatz/n=300/seed=2":                         0x6a71ce3ce70e07a0,
	"watts-strogatz/n=300/seed=3":                         0x64b376e5bfb0493d,
	"watts-strogatz/n=3000/seed=1":                        0x63d3c3c19bc3c602,
	"watts-strogatz/n=3000/seed=2":                        0x73075128c9926eff,
	"watts-strogatz/n=3000/seed=3":                        0x24b50eb60eae3e80,
}

func TestGeneratedGraphDigests(t *testing.T) {
	covered := map[string]bool{}
	got := map[string]uint64{}
	for _, c := range digestParams {
		fam, ok := FamilyByName(c.family)
		if !ok {
			t.Fatalf("family %q not registered", c.family)
		}
		covered[c.family] = true
		gf, _, err := fam.Bind(c.params)
		if err != nil {
			t.Fatal(err)
		}
		name := c.family
		if c.label != "" {
			name += "," + c.label
		}
		for _, n := range []int{300, 3000} {
			for seed := uint64(1); seed <= 3; seed++ {
				got[fmt.Sprintf("%s/n=%d/seed=%d", name, n, seed)] = csrDigest(gf.Build(n, seed))
			}
		}
	}
	for _, name := range FamilyNames() {
		if !covered[name] {
			t.Errorf("family %q has no digest cell", name)
		}
	}

	// One edge-list round trip: written and re-read, the graph is the same.
	fam, _ := FamilyByName("chung-lu")
	gf, _, err := fam.Bind(map[string]float64{"avgdeg": 10})
	if err != nil {
		t.Fatal(err)
	}
	src := gf.Build(3000, 1)
	var buf bytes.Buffer
	if err := graphio.WriteEdgeList(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := graphio.ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got["edgelist-roundtrip,chung-lu,avgdeg=10/n=3000/seed=1"] = csrDigest(back)
	if csrDigest(back) != csrDigest(src) {
		t.Error("edge-list round trip changed the graph")
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var table strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&table, "\t%q: %#016x,\n", k, got[k])
		if want, ok := wantDigests[k]; !ok {
			t.Errorf("%s: no recorded digest", k)
		} else if got[k] != want {
			t.Errorf("%s: digest %#016x, want %#016x", k, got[k], want)
		}
	}
	if len(wantDigests) != len(got) {
		t.Errorf("%d recorded digests, %d computed", len(wantDigests), len(got))
	}
	if t.Failed() {
		t.Logf("digests at this tree:\n%s", table.String())
	}
}
