package ssmis_test

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"ssmis"
)

// facadeSeeds are the facade's alias types and its constructors; the
// surface is every exported method reachable from them.
var facadeSeeds = []any{
	(*ssmis.Graph)(nil), (*ssmis.GraphBuilder)(nil), (*ssmis.Process)(nil),
	(*ssmis.Option)(nil), (*ssmis.Result)(nil), (*ssmis.Init)(nil),
	(*ssmis.Daemon)(nil), (*ssmis.Checkpoint)(nil), (*ssmis.TrialSummary)(nil),
	(*ssmis.BeepingMIS)(nil), (*ssmis.StoneAgeThreeState)(nil),
	(*ssmis.StoneAgeThreeColor)(nil), (*ssmis.Drift)(nil),
	(*ssmis.AsyncMIS)(nil), (*ssmis.AsyncThreeState)(nil),
	ssmis.NewTwoState, ssmis.NewThreeState, ssmis.NewThreeColor,
	ssmis.RestoreTwoState, ssmis.RestoreThreeState, ssmis.RestoreThreeColor,
	ssmis.NewBeepingMIS, ssmis.NewStoneAgeThreeState, ssmis.NewStoneAgeThreeColor,
	ssmis.NewAsyncMIS, ssmis.NewAsyncThreeState,
}

// reachableMethods lists "pkg.Type.Method" for every exported method of
// every module type reachable from the seeds: a seed's own type (a pointer
// seed stands for its element), a constructor's results, and, transitively,
// the results of those types' methods and the types of their exported
// fields. A non-interface type contributes its pointer method set, which a
// caller holding a value can reach by taking its address.
func reachableMethods(seeds []any) []string {
	seen := map[reflect.Type]bool{}
	var out []string
	var visit func(t reflect.Type)
	visit = func(t reflect.Type) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
			visit(t.Elem())
			return
		case reflect.Func:
			if t.Name() == "" {
				for i := 0; i < t.NumOut(); i++ {
					visit(t.Out(i))
				}
				return
			}
		}
		if t.Name() == "" || !strings.HasPrefix(t.PkgPath(), "ssmis") || seen[t] {
			return
		}
		seen[t] = true
		mt := t
		if t.Kind() != reflect.Interface {
			mt = reflect.PointerTo(t)
		}
		for i := 0; i < mt.NumMethod(); i++ {
			m := mt.Method(i)
			out = append(out, t.String()+"."+m.Name)
			visit(m.Type)
		}
		if t.Kind() == reflect.Struct {
			for i := 0; i < t.NumField(); i++ {
				if f := t.Field(i); f.IsExported() {
					visit(f.Type)
				}
			}
		}
	}
	for _, s := range seeds {
		t := reflect.TypeOf(s)
		if t.Kind() == reflect.Pointer {
			t = t.Elem()
		}
		visit(t)
	}
	sort.Strings(out)
	return out
}

// pinnedSurface is the accepted reachable surface, one "pkg.Type:" entry
// followed by its method names. The facade re-exports internal types by
// alias, so deleting a method of, say, graph.Graph or async.Engine breaks
// outside callers even though no facade line changes. Edit this list only
// to accept such a change on purpose.
const pinnedSurface = `
async.Drift: Name Rho SlotLen
async.Engine: MaxSkew Now ObservedSlotLens Rounds RunConfirmed
async.MIS: Black Engine RandomBits Rounds Run Stabilized
async.ThreeStateMIS: Black Engine RandomBits Rounds Run Stabilized State
beeping.MIS: Black RandomBits Round Run Stabilized
engine.CounterLayout: String
graph.Builder: AddEdge Build N
graph.Graph: AvgDegreeOfSubset Degree DiameterAtMostTwo Edges HasEdge M
	MaxCommonNeighbors MaxDegree N NeighborhoodClosure Neighbors
	WithEdgeToggled WithRandomChurn
mis.Color: String
mis.Init: String
mis.Process: ActiveCount Black N Name RandomBits Round Stabilized States
	Step
mis.ThreeColor: ActiveCount Black Checkpoint ColorOf Corrupt CounterPlane
	Graph GrayCount N Name RandomBits Rebind Round StabilizationTimes
	Stabilized States Step SwitchLevel SwitchOn
mis.ThreeState: ActiveCount Black Checkpoint Corrupt CounterPlane DaemonRun
	DaemonStep Graph Moves N Name RandomBits Rebind Round StabilizationTimes
	Stabilized State States Step Steps
mis.TriState: Black String
mis.TwoState: ActiveCount Black BlackCount BlackMask Checkpoint Corrupt
	CorruptAll CounterPlane DaemonRun DaemonStep Graph Moves N Name RandomBits
	Rebind Round StabilizationTimes Stabilized StableBlackCount States Step
	Steps
sched.Daemon: Name Select
snapshot.Process: CaptureEngine Encode RestoreEngine
stoneage.ThreeColorMIS: Black ColorOf Level RandomBits Round Run Stabilized
stoneage.ThreeStateMIS: Black RandomBits Round Run Stabilized State
xrand.Rand: Bernoulli BernoulliPow2 Bit Float64 Geom Intn MarshalBinary Perm
	Reseed Shuffle Split SplitInto Uint64 Uint64n UnmarshalBinary
`

// parseSurface expands pinnedSurface into sorted "pkg.Type.Method" entries.
func parseSurface(s string) []string {
	var out []string
	typ := ""
	for _, f := range strings.Fields(s) {
		if name, ok := strings.CutSuffix(f, ":"); ok {
			typ = name
			continue
		}
		out = append(out, typ+"."+f)
	}
	sort.Strings(out)
	return out
}

// The exported methods reachable through the facade must equal the pinned
// list, so a removal (or an addition) fails with a diff instead of passing
// unnoticed.
func TestFacadeReachableSurfacePinned(t *testing.T) {
	got := reachableMethods(facadeSeeds)
	want := parseSurface(pinnedSurface)
	have := map[string]bool{}
	for _, m := range got {
		have[m] = true
	}
	pinned := map[string]bool{}
	var diff []string
	for _, m := range want {
		pinned[m] = true
		if !have[m] {
			diff = append(diff, "- "+m)
		}
	}
	for _, m := range got {
		if !pinned[m] {
			diff = append(diff, "+ "+m)
		}
	}
	if len(diff) > 0 {
		t.Fatalf("reachable facade surface changed (- removed, + added); update pinnedSurface to accept:\n%s",
			strings.Join(diff, "\n"))
	}
}
