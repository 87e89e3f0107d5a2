package phaseclock

// WithOnThreshold sets the largest level mapped to "on" (default 2). The
// paper's switch fixes the threshold at 2; the tests vary it to reach every
// branch of the word-parallel export.
func WithOnThreshold(m uint8) Option {
	return func(c *Clock) { c.onMax = m }
}
