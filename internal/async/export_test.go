package async

// StepRound advances the medium until the next virtual round completes —
// every node has finished one more slot. Between StepRound calls at ρ = 1
// the configuration equals the synchronous engine's after the same number
// of Steps, which is how the cross-runtime equivalence matrix compares the
// two engines round-for-round.
func (e *Engine) StepRound() {
	if e.g.N() == 0 {
		return
	}
	for !e.processNext() {
	}
}
