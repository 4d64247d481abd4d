package rpccore_test

import (
	"testing"

	"scalerpc/internal/rpccore"
)

// TestReplyCacheRing: admits fill a client's 2W-entry ring in order, a
// duplicate reads as executing until its Commit and as the committed reply
// after it, the oldest admit is evicted first, a Commit for an evicted entry
// is dropped, and clients and Drop stay independent.
func TestReplyCacheRing(t *testing.T) {
	rc := rpccore.NewReplyCache(2) // 4 entries per client
	for id := uint64(1); id <= 4; id++ {
		if dup, _, _ := rc.Admit(7, id); dup {
			t.Fatalf("first admit of %d reads as a duplicate", id)
		}
	}
	if dup, _, ready := rc.Admit(7, 2); !dup || ready {
		t.Fatalf("executing request: dup %v ready %v, want true false", dup, ready)
	}
	rc.Commit(7, 2, []byte("two"), false)
	rc.Commit(7, 3, []byte("three"), true)
	dup, rep, ready := rc.Admit(7, 2)
	if !dup || !ready || string(rep.Payload) != "two" || rep.Err {
		t.Fatalf("committed request: dup %v ready %v rep %q err %v", dup, ready, rep.Payload, rep.Err)
	}
	if _, rep, _ := rc.Admit(7, 3); string(rep.Payload) != "three" || !rep.Err {
		t.Fatalf("error reply replayed as %q err %v", rep.Payload, rep.Err)
	}

	// A fifth admit evicts the oldest (1), not the most recently looked up.
	rc.Admit(7, 5)
	if dup, _, _ := rc.Admit(7, 1); dup {
		t.Fatal("oldest admit survived a full ring")
	}
	// That re-admit of 1 evicted 2; 2's slot now belongs to 1, so a late
	// Commit of 2 must not land in it.
	rc.Commit(7, 2, []byte("late"), false)
	if dup, _, ready := rc.Admit(7, 1); !dup || ready {
		t.Fatalf("re-admitted request: dup %v ready %v, want true false", dup, ready)
	}
	// A reused slot must not leak its previous, longer reply.
	rc.Commit(7, 1, []byte("x"), false)
	if _, rep, _ := rc.Admit(7, 1); string(rep.Payload) != "x" {
		t.Fatalf("reused slot replays %q, want %q", rep.Payload, "x")
	}

	if dup, _, _ := rc.Admit(8, 3); dup {
		t.Fatal("clients share a window")
	}
	rc.Drop(7)
	if dup, _, _ := rc.Admit(7, 3); dup {
		t.Fatal("Drop kept the client's entries")
	}
	if dup, _, _ := rc.Admit(8, 3); !dup {
		t.Fatal("Drop of one client forgot another")
	}
}

// TestAllocBudgetReplyCache: once a client's ring has been round once, an
// Admit and Commit of a new request allocate nothing — the slot and its
// payload buffer are reused.
func TestAllocBudgetReplyCache(t *testing.T) {
	rc := rpccore.NewReplyCache(8)
	payload := make([]byte, 2048)
	id := uint64(0)
	step := func() {
		id++
		if dup, _, _ := rc.Admit(3, id); dup {
			t.Fatalf("request %d reads as a duplicate", id)
		}
		rc.Commit(3, id, payload[:id%2048], false)
		if _, rep, ready := rc.Admit(3, id); !ready || len(rep.Payload) != int(id%2048) {
			t.Fatalf("request %d: ready %v, %d bytes", id, ready, len(rep.Payload))
		}
	}
	for i := 0; i < 16; i++ {
		step()
	}
	for i := 0; i < 16; i++ { // every slot holds a 2 KB-capable buffer now
		rc.Commit(3, id-uint64(i), payload, false)
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("%.2f allocs per admit+commit in steady state, want 0", n)
	}
}
