package xrand

import "math"

// logFloat and isNegInf are thin wrappers over package math, isolated so the
// package's single dependency on it is visible in one place.
func logFloat(x float64) float64 { return math.Log(x) }

func isNegInf(x float64) bool { return math.IsInf(x, -1) }
