// Package recycle holds the free lists the transaction path draws its
// per-call objects from, and the poison switch that makes a use after
// release show.
//
// The rule every list here serves: an object has one user at a time. It
// is taken when a call, handler invocation or poll begins and put back
// when that one user is done with it, and nothing that another simulated
// thread can reach across a yield keeps a pointer into it. The simulator
// runs one thread at a time and switches only where a thread yields, so a
// list needs no lock; what it needs is that no holder yields between
// releasing an object and its last read of it.
package recycle

// Poison makes every release overwrite what it returns — buffers with
// Byte, ids and times with Word — so a holder that reads an object after
// letting it go reads garbage instead of, by luck, still-good data or the
// next user's. Tests set it; nothing else does.
var Poison bool

// Byte and Word are the poison patterns.
const (
	Byte byte   = 0xA5
	Word uint64 = 0xA5A5A5A5A5A5A5A5
)

// List is a LIFO free list of *T owned by one component. Get returns a
// released object, or a new zero one when none is free; the caller resets
// what it needs. Put hands an object back; the caller must hold no
// reference to it afterwards.
type List[T any] struct{ free []*T }

// Get takes an object off the list.
func (l *List[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put returns x to the list.
func (l *List[T]) Put(x *T) { l.free = append(l.free, x) }

// Bufs is a free list of byte buffers: each keeps its backing array from
// one user to the next, so a steady-state copy allocates nothing.
type Bufs struct{ free [][]byte }

// Get returns a buffer of length n, reusing a released one when its
// capacity suffices.
func (b *Bufs) Get(n int) []byte {
	k := len(b.free)
	if k == 0 {
		return make([]byte, n)
	}
	buf := b.free[k-1]
	b.free[k-1] = nil
	b.free = b.free[:k-1]
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// Clone returns a released buffer holding a copy of src.
func (b *Bufs) Clone(src []byte) []byte {
	buf := b.Get(len(src))
	copy(buf, src)
	return buf
}

// Put returns buf to the list, poisoned when Poison is set.
func (b *Bufs) Put(buf []byte) {
	if Poison {
		PoisonBytes(buf[:cap(buf)])
	}
	b.free = append(b.free, buf[:0])
}

// PoisonBytes fills p with Byte.
func PoisonBytes(p []byte) {
	for i := range p {
		p[i] = Byte
	}
}
