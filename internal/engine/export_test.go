package engine

// Complete reports whether the complete-graph fast path is engaged.
func (e *Core) Complete() bool { return e.complete }

// DisableCompleteFastPath forces the generic per-vertex counters even on
// complete graphs; differential tests use it to exercise both paths on one
// execution.
func (e *Core) DisableCompleteFastPath() {
	e.forceGeneric = true
	e.Rebuild()
}

// ForceFlatCounters makes every engine built on c keep full-width int32
// neighbor counters whatever the graph's maximum degree; differential tests
// and the flat rows of the kernel record run real processes on such a
// context beside the default lanes.
func ForceFlatCounters(c *RunContext) { c.plane.flat = true }
