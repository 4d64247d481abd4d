package nic

// OutQueue reports the outbound engine's queued jobs and the capacity its
// queue holds.
func (n *NIC) OutQueue() (pending, capacity int) { return len(n.outQ) - n.outHead, cap(n.outQ) }
