package nic_test

import "scalerpc/internal/memory"

// peek returns a copy of region r's bytes [off, off+n), which may span
// several backing pages.
func peek(r *memory.Region, off, n int) []byte {
	b := make([]byte, n)
	if _, err := r.ReadAt(b, int64(off)); err != nil {
		panic(err)
	}
	return b
}

// poke copies b into region r at off.
func poke(r *memory.Region, off int, b []byte) {
	if _, err := r.WriteAt(b, int64(off)); err != nil {
		panic(err)
	}
}
