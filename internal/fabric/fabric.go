// Package fabric models the cluster interconnect: one switch with a
// full-duplex port per host, matching the paper's testbed (a Mellanox
// SX-1012 with 56 Gbps FDR links).
//
// Each port serializes transmissions at link bandwidth in each direction
// independently; messages between a port pair are delivered in FIFO order.
// InfiniBand links are lossless and ordered thanks to link-level flow
// control, so by default nothing is ever dropped; the deterministic fault
// plane in internal/faults installs an Interceptor (SetInterceptor) to
// inject drops, corruption, duplication and latency spikes, which is what
// exercises the NIC model's RC retransmission machinery.
package fabric

import (
	"fmt"

	"scalerpc/internal/sim"
)

// Config describes the interconnect.
type Config struct {
	// BandwidthGbps is per-port bandwidth in each direction.
	BandwidthGbps float64
	// SwitchLatency is propagation plus switching delay applied once per
	// message between tx completion and rx start.
	SwitchLatency sim.Duration
	// WireOverheadBytes is per-message header overhead on the wire
	// (LRH+GRH+BTH+ICRC etc. for IB).
	WireOverheadBytes int
}

// DefaultConfig matches the paper's 56 Gbps FDR fabric.
func DefaultConfig() Config {
	return Config{
		BandwidthGbps:     56,
		SwitchLatency:     300,
		WireOverheadBytes: 38,
	}
}

// Message traffic classes, carried end to end so fault rules can target
// specific protocol roles (e.g. drop only lease keepalives). The fabric
// itself never interprets the class beyond handing it to the interceptor.
const (
	// ClassData is ordinary data-path traffic (the zero value).
	ClassData byte = 0
	// ClassControl marks control-plane handshake and teardown frames.
	ClassControl byte = 1
	// ClassKeepalive marks liveness traffic: lease keepalives and
	// failure-detector pings/probes.
	ClassKeepalive byte = 2
)

// Message is one unit of delivery between NICs. Payload is opaque to the
// fabric.
type Message struct {
	Src, Dst int
	Bytes    int // payload size for wire-time purposes
	Payload  interface{}
	// Class tags the traffic class of the payload (ClassData et al.) so
	// interceptors can apply selective fault rules. Informational only.
	Class byte
	// Mangled marks this delivery as payload-corrupted past the ICRC (a
	// Verdict.CorruptPayload injection): the receiving NIC must flip bits
	// in a private copy of the payload before committing it. Set per
	// delivered copy, never on the sender's message.
	Mangled bool
	// NoRecycle tells the receiver this message (and its payload) is
	// delivered more than once — a Duplicate verdict aliases the same
	// pointers across two deliveries — so neither the message nor the
	// payload may be returned to an arena after handling one delivery.
	NoRecycle bool
}

// PortStats counts per-port traffic.
type PortStats struct {
	TxMessages uint64
	TxBytes    uint64
	RxMessages uint64
	RxBytes    uint64
}

// Port is one host's attachment point.
type Port struct {
	ID      int
	fab     *Fabric
	txFree  sim.Time
	rxFree  sim.Time
	deliver func(*Message)
	Stats   PortStats
}

// OnDeliver installs the receive handler (called inline from the scheduler;
// must not block).
func (p *Port) OnDeliver(fn func(*Message)) { p.deliver = fn }

// Verdict is an Interceptor's decision for one message. The zero value
// delivers the message unmodified.
type Verdict struct {
	// Drop discards the message at the switch: the source uplink is still
	// consumed (the packet left the NIC) but nothing reaches the
	// destination port.
	Drop bool
	// Corrupt models an ICRC failure: the message traverses the full path
	// and consumes bandwidth at both ends, then the receiving port
	// discards it without invoking the delivery handler.
	Corrupt bool
	// CorruptPayload delivers the message with its payload corrupted: the
	// bit flip happened past the link ICRC (a DMA fault, a buggy bridge),
	// so the NIC accepts and commits the damage. This is the failure mode
	// the RPC layer's frame CRC exists to catch.
	CorruptPayload bool
	// Duplicate delivers a second copy immediately after the first, each
	// paying its own serialization (a retransmitted packet whose original
	// was only delayed, or a misbehaving switch). The duplicate is always
	// delivered clean.
	Duplicate bool
	// ExtraDelay holds the message back after it clears the destination
	// downlink (a latency spike in the slow endpoint's own processing).
	// It must not reserve the downlink itself: a straggling NIC delays its
	// own packets, it does not occupy the switch port while doing so —
	// otherwise one sick peer head-of-line blocks every healthy flow
	// sharing the destination port, which is exactly the gray-failure
	// leakage the chaos suite exists to rule out.
	ExtraDelay sim.Duration
	// WireTimeScale, when > 1, multiplies the message's serialization time
	// on both the source uplink and the destination downlink — a degraded
	// link running below nominal rate. 0 or 1 means nominal bandwidth.
	WireTimeScale float64
}

// Interceptor inspects every message entering the switch and decides its
// fate. Installed with SetInterceptor; called inline from Send, so it must
// not block. internal/faults provides the standard implementation.
type Interceptor func(*Message) Verdict

// Fabric is the switch plus all ports.
type Fabric struct {
	env       *sim.Env
	cfg       Config
	ports     []*Port
	intercept Interceptor
	// bytesPerNs is the per-direction port bandwidth.
	bytesPerNs float64
	// arriveFn is arrive, bound once so that transmit schedules each
	// delivery without building a closure.
	arriveFn func(any)
}

// New creates a fabric with n ports.
func New(env *sim.Env, cfg Config, n int) *Fabric {
	if cfg.BandwidthGbps <= 0 {
		panic("fabric: bandwidth must be positive")
	}
	f := &Fabric{env: env, cfg: cfg, bytesPerNs: cfg.BandwidthGbps / 8.0}
	f.arriveFn = f.arrive
	for i := 0; i < n; i++ {
		f.ports = append(f.ports, &Port{ID: i, fab: f})
	}
	return f
}

// Port returns port i.
func (f *Fabric) Port(i int) *Port { return f.ports[i] }

// NumPorts returns the number of ports.
func (f *Fabric) NumPorts() int { return len(f.ports) }

// BytesPerNs returns the per-direction port bandwidth.
func (f *Fabric) BytesPerNs() float64 { return f.bytesPerNs }

// wireTime returns serialization time for a message of size payload bytes.
func (f *Fabric) wireTime(payload int) sim.Duration {
	bytes := payload + f.cfg.WireOverheadBytes
	d := sim.Duration(float64(bytes) / f.bytesPerNs)
	if d < 1 {
		d = 1
	}
	return d
}

// SetInterceptor installs fn as the switch's fault hook, consulted once
// per Send (per injected duplicate the hook is not re-consulted). Passing
// nil removes the hook. This is the sanctioned entry point for
// internal/faults — fault planes must not reach into fabric private state.
func (f *Fabric) SetInterceptor(fn Interceptor) { f.intercept = fn }

// Send transmits msg from its Src port to its Dst port, modelling
// serialization on the source uplink, switch latency, and serialization on
// the destination downlink. Delivery invokes the destination port's handler.
// An installed Interceptor may drop, corrupt, duplicate or delay the
// message first.
func (f *Fabric) Send(msg *Message) {
	if msg.Src < 0 || msg.Src >= len(f.ports) || msg.Dst < 0 || msg.Dst >= len(f.ports) {
		panic(fmt.Sprintf("fabric: bad ports src=%d dst=%d", msg.Src, msg.Dst))
	}
	var v Verdict
	if f.intercept != nil {
		v = f.intercept(msg)
	}
	if v.Drop {
		// Switch drop: the uplink serialized the packet, then it vanished.
		src := f.ports[msg.Src]
		now := f.env.Now()
		wt := scaleWire(f.wireTime(msg.Bytes), v.WireTimeScale)
		txStart := now
		if src.txFree > txStart {
			txStart = src.txFree
		}
		src.txFree = txStart + wt
		src.Stats.TxMessages++
		src.Stats.TxBytes += uint64(msg.Bytes + f.cfg.WireOverheadBytes)
		return
	}
	first := msg
	if v.Duplicate {
		// Both deliveries share this message and its payload: pin them out
		// of the receiver's recycling arenas.
		msg.NoRecycle = true
	}
	if v.CorruptPayload && !v.Corrupt {
		// Per-delivery copy: the sender (and any duplicate below) must keep
		// seeing the clean message — NIC retransmission reuses it.
		cp := *msg
		cp.Mangled = true
		first = &cp
	}
	f.transmit(first, v, !v.Corrupt)
	if v.Duplicate {
		f.transmit(msg, v, true)
	}
}

// scaleWire applies a Verdict.WireTimeScale to a nominal serialization
// time. Scales at or below 1 leave the time unchanged: a fault plane can
// only slow a link down, never beat the hardware.
func scaleWire(wt sim.Duration, scale float64) sim.Duration {
	if scale > 1 {
		wt = sim.Duration(float64(wt) * scale)
	}
	return wt
}

// transmit schedules one copy of msg through the switch. When deliver is
// false the copy consumes bandwidth end to end but the receiving port
// discards it (ICRC corruption).
func (f *Fabric) transmit(msg *Message, v Verdict, deliver bool) {
	src, dst := f.ports[msg.Src], f.ports[msg.Dst]
	now := f.env.Now()
	extraDelay := v.ExtraDelay
	wt := scaleWire(f.wireTime(msg.Bytes), v.WireTimeScale)

	txStart := now
	if src.txFree > txStart {
		txStart = src.txFree
	}
	txEnd := txStart + wt
	src.txFree = txEnd

	rxStart := txEnd + f.cfg.SwitchLatency
	if dst.rxFree > rxStart {
		rxStart = dst.rxFree
	}
	rxEnd := rxStart + wt
	dst.rxFree = rxEnd
	// The latency spike lands after downlink serialization: the delayed
	// packet arrives late, but it never holds the port against traffic
	// from other, healthy peers (see Verdict.ExtraDelay).
	rxEnd += extraDelay

	src.Stats.TxMessages++
	src.Stats.TxBytes += uint64(msg.Bytes + f.cfg.WireOverheadBytes)

	if !deliver {
		// ICRC discard (fault plane only): the downlink still carried it.
		f.env.At(rxEnd-now, func() { f.received(dst, msg) })
		return
	}
	f.env.AtArg(rxEnd-now, f.arriveFn, msg)
}

// received counts one message off the destination downlink.
func (f *Fabric) received(dst *Port, msg *Message) {
	dst.Stats.RxMessages++
	dst.Stats.RxBytes += uint64(msg.Bytes + f.cfg.WireOverheadBytes)
}

// arrive is the far end of transmit: arg is the *Message, which names its
// own destination port.
func (f *Fabric) arrive(arg any) {
	msg := arg.(*Message)
	dst := f.ports[msg.Dst]
	f.received(dst, msg)
	if dst.deliver != nil {
		dst.deliver(msg)
	}
}
