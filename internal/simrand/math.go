package simrand

import "math"

// Thin aliases keep distribution code readable without sprinkling math.
// everywhere in hot loops.
func sqrt(x float64) float64 { return math.Sqrt(x) }
func ln(x float64) float64   { return math.Log(x) }
func exp(x float64) float64  { return math.Exp(x) }
