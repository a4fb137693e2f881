package fnv1a

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestMatchesHashFNV pins the one property callers rely on: the same
// bytes in the same order give hash/fnv's New64a sum.
func TestMatchesHashFNV(t *testing.T) {
	ref := fnv.New64a()
	h := Init
	if uint64(h) != ref.Sum64() {
		t.Fatalf("Init = %#x, hash/fnv's empty sum is %#x", uint64(h), ref.Sum64())
	}
	for i, s := range []string{"", "a", "SELECT 1", "lineitem(l_orderkey,l_linenumber)", "\x00\xff\xfe", "héllo"} {
		v := uint64(i) * 0x9e3779b97f4a7c15
		h = h.Str(s).Byte(byte(i)).Uint64(v)
		ref.Write([]byte(s))
		ref.Write([]byte{byte(i)})
		ref.Write(binary.LittleEndian.AppendUint64(nil, v))
		if uint64(h) != ref.Sum64() {
			t.Fatalf("after %q: %#x, hash/fnv %#x", s, uint64(h), ref.Sum64())
		}
	}
}
