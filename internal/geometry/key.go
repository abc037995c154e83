package geometry

import (
	"encoding/binary"
	"math"
)

// AppendKey appends v's canonical, bit-exact key bytes to dst and returns
// the extended slice. Two vectors have equal keys iff they are Equal (same
// dimension, identical float bits). The Γ-point memo and its value
// interner key values by these bytes, building composite keys over many
// vectors without intermediate string allocations; keying must be exact,
// not tolerance-based, or two distinct values would share one solve.
func AppendKey(dst []byte, v Vector) []byte {
	for _, x := range v {
		if x == 0 {
			x = 0 // collapse −0.0 onto +0.0 so keys agree with Equal
		}
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}
