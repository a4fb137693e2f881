// Package fnv1a is 64-bit FNV-1a as a value type. It produces the same
// sums as hash/fnv's New64a over the same bytes, but hashes strings and
// words in place: no hasher behind an interface, no []byte(s) copy, so
// signatures computed on the per-statement path allocate nothing.
package fnv1a

// Hash is a running FNV-1a sum; start from Init and chain the methods.
type Hash uint64

// Init is the empty sum (the FNV-1a 64-bit offset basis).
const Init Hash = 14695981039346656037

const prime = 1099511628211

// Byte adds one byte.
func (h Hash) Byte(b byte) Hash { return (h ^ Hash(b)) * prime }

// Str adds the bytes of s.
func (h Hash) Str(s string) Hash {
	for i := 0; i < len(s); i++ {
		h = h.Byte(s[i])
	}
	return h
}

// Uint64 adds the eight bytes of v, least significant first.
func (h Hash) Uint64(v uint64) Hash {
	for i := 0; i < 64; i += 8 {
		h = h.Byte(byte(v >> i))
	}
	return h
}
