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
