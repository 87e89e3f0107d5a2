// Package goodgraph checks the structural properties (P1)–(P6) of the
// paper's Definition 17: a graph satisfying them is "(n,p)-good", and
// Lemma 18 states that a G(n,p) random graph is good with probability
// 1 − O(n^-2). The experiment E9 samples random graphs and reports
// per-property pass rates.
//
// Properties P1–P4 quantify over exponentially many vertex subsets, so they
// cannot be checked exactly at experiment scale. Following the structure of
// the paper's proofs (which union-bound over set sizes), the checker tests
// each property on a documented ensemble of random subsets of the relevant
// sizes plus degree-extremal subsets, which are the natural candidates for
// violations. P5 and P6 are checked exactly.
package goodgraph

import (
	"fmt"
	"math"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// Report carries the outcome of a goodness check.
type Report struct {
	N int
	P float64
	// Pass[k] is the outcome of property Pk (index 1..6; index 0 unused).
	Pass [7]bool
	// Detail[k] describes the first violation found, if any.
	Detail [7]string
	// SamplesPerProperty is the sampling budget that was used.
	SamplesPerProperty int
}

// Good reports whether every property passed.
func (r *Report) Good() bool {
	for k := 1; k <= 6; k++ {
		if !r.Pass[k] {
			return false
		}
	}
	return true
}

// Checker runs the property checks with a configurable sampling budget.
type Checker struct {
	// Samples is the number of random subsets (or triples) drawn per
	// property; defaults to 200 when zero.
	Samples int
}

// Check tests g against Definition 17 with edge probability p.
func (c Checker) Check(g *graph.Graph, p float64, rng *xrand.Rand) *Report {
	samples := c.Samples
	if samples <= 0 {
		samples = 200
	}
	n := g.N()
	r := &Report{N: n, P: p, SamplesPerProperty: samples}
	lnN := math.Log(float64(n))

	r.Pass[1], r.Detail[1] = c.checkP1(g, p, lnN, samples, rng)
	r.Pass[2], r.Detail[2] = c.checkP2(g, p, lnN, samples, rng)
	r.Pass[3], r.Detail[3] = c.checkP3(g, p, lnN, samples, rng)
	r.Pass[4], r.Detail[4] = c.checkP4(g, p, lnN, samples, rng)
	r.Pass[5], r.Detail[5] = checkP5(g, p, lnN)
	r.Pass[6], r.Detail[6] = checkP6(g, p, lnN)
	return r
}

// randomSubset draws a uniformly random k-subset of [0, n).
func randomSubset(n, k int, rng *xrand.Rand) []int {
	if k > n {
		k = n
	}
	// Partial Fisher-Yates over an index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// topDegreeSubset returns the k vertices of highest degree.
func topDegreeSubset(g *graph.Graph, k int) []int {
	n := g.N()
	if k > n {
		k = n
	}
	// Counting sort by degree, descending.
	maxD := g.MaxDegree()
	buckets := make([][]int, maxD+1)
	for u := 0; u < n; u++ {
		d := g.Degree(u)
		buckets[d] = append(buckets[d], u)
	}
	out := make([]int, 0, k)
	for d := maxD; d >= 0 && len(out) < k; d-- {
		for _, u := range buckets[d] {
			if len(out) == k {
				break
			}
			out = append(out, u)
		}
	}
	return out
}

// checkP1: for any S, avg degree of G[S] ≤ max(8p|S|, 4 ln n). Random and
// top-degree subsets across a geometric ladder of sizes.
func (c Checker) checkP1(g *graph.Graph, p, lnN float64, samples int, rng *xrand.Rand) (bool, string) {
	n := g.N()
	sizes := sizeLadder(n)
	perSize := samples/len(sizes) + 1
	for _, k := range sizes {
		bound := math.Max(8*p*float64(k), 4*lnN)
		check := func(s []int, kind string) (bool, string) {
			if d := g.AvgDegreeOfSubset(s); d > bound {
				return false, fmt.Sprintf("P1: %s subset size %d has avg degree %.2f > %.2f", kind, k, d, bound)
			}
			return true, ""
		}
		if ok, detail := check(topDegreeSubset(g, k), "top-degree"); !ok {
			return false, detail
		}
		for i := 0; i < perSize; i++ {
			if ok, detail := check(randomSubset(n, k, rng), "random"); !ok {
				return false, detail
			}
		}
	}
	return true, ""
}

// checkP2: for any S with |S| ≥ 40 ln(n)/p, few outside vertices see less
// than p|S|/2 of S.
func (c Checker) checkP2(g *graph.Graph, p, lnN float64, samples int, rng *xrand.Rand) (bool, string) {
	n := g.N()
	if p <= 0 {
		return true, "" // threshold size unbounded; property vacuous
	}
	minSize := int(math.Ceil(40 * lnN / p))
	if minSize > n {
		return true, "" // no sets of the required size exist
	}
	sizes := []int{minSize, min(2*minSize, n), min(4*minSize, n), n}
	perSize := samples/len(sizes) + 1
	for _, k := range sizes {
		for i := 0; i < perSize; i++ {
			s := randomSubset(n, k, rng)
			inS := make([]bool, n)
			for _, u := range s {
				inS[u] = true
			}
			thresh := p * float64(k) / 2
			low := 0
			for u := 0; u < n; u++ {
				if inS[u] {
					continue
				}
				cnt := 0
				for _, v := range g.Neighbors(u) {
					if inS[v] {
						cnt++
					}
				}
				if float64(cnt) < thresh {
					low++
				}
			}
			if low > k/2 {
				return false, fmt.Sprintf("P2: subset size %d has %d > %d low-degree outsiders", k, low, k/2)
			}
		}
	}
	return true, ""
}

// checkP3: for disjoint S, T, I with |S| ≥ 2|T| and (S∪T) ∩ N(I) = ∅:
// |N(T) \ N+(S∪I)| ≤ |N(S) \ N+(I)| + 8 ln²(n)/p.
func (c Checker) checkP3(g *graph.Graph, p, lnN float64, samples int, rng *xrand.Rand) (bool, string) {
	n := g.N()
	if p <= 0 {
		return true, ""
	}
	slack := 8 * lnN * lnN / p
	for i := 0; i < samples; i++ {
		// Draw I as a small random independent-ish seed, then S, T from the
		// vertices outside N(I).
		iSize := 1 + rng.Intn(max(1, n/20))
		iSet := randomSubset(n, iSize, rng)
		nPlusI := g.NeighborhoodClosure(iSet)
		inI := make([]bool, n)
		for _, u := range iSet {
			inI[u] = true
		}
		var free []int
		for u := 0; u < n; u++ {
			if !nPlusI[u] {
				free = append(free, u)
			}
		}
		if len(free) < 3 {
			continue
		}
		rng.Shuffle(len(free), func(a, b int) { free[a], free[b] = free[b], free[a] })
		tSize := 1 + rng.Intn(max(1, len(free)/3))
		sSize := min(2*tSize+rng.Intn(len(free)), len(free)-tSize)
		if sSize < 2*tSize {
			continue
		}
		tSet := free[:tSize]
		sSet := free[tSize : tSize+sSize]

		inS := make([]bool, n)
		for _, u := range sSet {
			inS[u] = true
		}
		inT := make([]bool, n)
		for _, u := range tSet {
			inT[u] = true
		}
		nPlusSI := g.NeighborhoodClosure(append(append([]int(nil), sSet...), iSet...))
		nS := 0 // |N(S) \ N+(I)|
		nT := 0 // |N(T) \ N+(S∪I)|
		seenS := make([]bool, n)
		seenT := make([]bool, n)
		for _, u := range sSet {
			for _, v := range g.Neighbors(u) {
				if !inS[v] && !nPlusI[v] && !seenS[v] {
					seenS[v] = true
					nS++
				}
			}
		}
		for _, u := range tSet {
			for _, v := range g.Neighbors(u) {
				if !inT[v] && !nPlusSI[v] && !seenT[v] {
					seenT[v] = true
					nT++
				}
			}
		}
		if float64(nT) > float64(nS)+slack {
			return false, fmt.Sprintf("P3: |N(T)\\N+(S∪I)|=%d > |N(S)\\N+(I)|=%d + %.1f", nT, nS, slack)
		}
	}
	return true, ""
}

// checkP4: disjoint S, T with |S| ≥ |T| and |T| ≤ ln(n)/p satisfy
// |E(S,T)| ≤ 6|S| ln n. Random pairs plus top-degree T (the adversarial
// choice).
func (c Checker) checkP4(g *graph.Graph, p, lnN float64, samples int, rng *xrand.Rand) (bool, string) {
	n := g.N()
	if p <= 0 {
		return true, ""
	}
	maxT := int(lnN / p)
	if maxT < 1 {
		return true, ""
	}
	if maxT > n/2 {
		maxT = n / 2
	}
	for i := 0; i < samples; i++ {
		tSize := 1 + rng.Intn(maxT)
		var tSet []int
		if i%4 == 0 {
			tSet = topDegreeSubset(g, tSize)
		} else {
			tSet = randomSubset(n, tSize, rng)
		}
		inT := make([]bool, n)
		for _, u := range tSet {
			inT[u] = true
		}
		sSize := tSize + rng.Intn(n-tSize)
		var sSet []int
		for _, u := range randomSubset(n, min(sSize+tSize, n), rng) {
			if !inT[u] {
				sSet = append(sSet, u)
			}
			if len(sSet) == sSize {
				break
			}
		}
		if len(sSet) < tSize {
			continue
		}
		edges := 0
		inS := make([]bool, n)
		for _, u := range sSet {
			inS[u] = true
		}
		for _, u := range tSet {
			for _, v := range g.Neighbors(u) {
				if inS[v] {
					edges++
				}
			}
		}
		if bound := 6 * float64(len(sSet)) * lnN; float64(edges) > bound {
			return false, fmt.Sprintf("P4: |E(S,T)|=%d > 6|S|ln n=%.1f (|S|=%d |T|=%d)", edges, bound, len(sSet), tSize)
		}
	}
	return true, ""
}

// checkP5 (exact): no two vertices have more than max(6np², 4 ln n) common
// neighbors.
func checkP5(g *graph.Graph, p, lnN float64) (bool, string) {
	bound := math.Max(6*float64(g.N())*p*p, 4*lnN)
	if got := g.MaxCommonNeighbors(); float64(got) > bound {
		return false, fmt.Sprintf("P5: max common neighbors %d > %.2f", got, bound)
	}
	return true, ""
}

// checkP6 (exact): if p ≥ 2√(ln(n)/n) then diam(G) ≤ 2.
func checkP6(g *graph.Graph, p, lnN float64) (bool, string) {
	n := g.N()
	if n < 2 {
		return true, ""
	}
	if p < 2*math.Sqrt(lnN/float64(n)) {
		return true, "" // premise not met; property vacuous
	}
	if !g.DiameterAtMostTwo() {
		return false, "P6: diameter exceeds 2 despite dense p"
	}
	return true, ""
}

// sizeLadder returns a geometric ladder of subset sizes for sampling.
func sizeLadder(n int) []int {
	var out []int
	for k := 4; k < n; k *= 2 {
		out = append(out, k)
	}
	out = append(out, n)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
