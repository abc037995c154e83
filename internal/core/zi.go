package core

import "repro/internal/geometry"

// tuple is one (origin, value) pair inside a B set; the restricted
// algorithms and the AAD-based algorithm both reduce to this shape.
type tuple struct {
	origin int
	value  geometry.Vector
}
