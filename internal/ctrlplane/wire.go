package ctrlplane

import (
	"encoding/binary"
	"errors"
)

// Control-plane message kinds, carried over each host's bootstrap UD QP.
// The handshake mirrors RDMA-CM: connect-request/accept/ready exchange the
// QPN and initial PSN of each side (the rkeys and any application data ride
// in the opaque payload), resume reactivates a cached pair, and
// keepalive/disconnect maintain the lease and cache state.
const (
	kindConnReq byte = iota + 1
	kindAccept
	kindReject
	kindReady
	kindResume
	kindKeepalive
	kindDisconnect
	// kindPing is a failure-detector probe: the receiver answers with an
	// immediate keepalive, giving the suspecting side a fresh arrival
	// sample without waiting for the next leaseInterval.
	kindPing
)

// wireMsg is the decoded form of every control-plane message. Field use by
// kind:
//
//	connReq:    reqID, qpn (client QPN), psn (client initial PSN), svc, payload
//	accept:     reqID, qpn (server QPN), psn (server initial PSN), flag (1 =
//	            resumed from cache), payload (service response)
//	reject:     reqID, reason
//	ready:      qpn (server QPN)
//	resume:     reqID, qpn (cached server QPN), qpn2 (client QPN), svc, payload
//	keepalive:  (sender identified by the UD source address)
//	disconnect: qpn (server QPN), flag (1 = graceful: park in cache)
type wireMsg struct {
	kind    byte
	reqID   uint64
	qpn     uint32
	qpn2    uint32
	psn     uint64
	flag    byte
	svc     string
	reason  string
	payload []byte
}

// wireFixed is the fixed prefix: kind, reqID, qpn, qpn2, psn, flag, plus
// the three variable-part length fields (svc u8, reason u8, payload u16).
const wireFixed = 1 + 8 + 4 + 4 + 8 + 1 + 1 + 1 + 2

var errWireShort = errors.New("ctrlplane: truncated control message")

// encode serializes the message into buf, returning the byte count.
func (w *wireMsg) encode(buf []byte) int {
	buf[0] = w.kind
	binary.LittleEndian.PutUint64(buf[1:], w.reqID)
	binary.LittleEndian.PutUint32(buf[9:], w.qpn)
	binary.LittleEndian.PutUint32(buf[13:], w.qpn2)
	binary.LittleEndian.PutUint64(buf[17:], w.psn)
	buf[25] = w.flag
	buf[26] = byte(len(w.svc))
	buf[27] = byte(len(w.reason))
	binary.LittleEndian.PutUint16(buf[28:], uint16(len(w.payload)))
	n := wireFixed
	n += copy(buf[n:], w.svc)
	n += copy(buf[n:], w.reason)
	n += copy(buf[n:], w.payload)
	return n
}

// decodeMsg parses a received control message, copying the variable parts
// out of the receive buffer (which is reposted immediately after).
func decodeMsg(b []byte) (wireMsg, error) {
	if len(b) < wireFixed {
		return wireMsg{}, errWireShort
	}
	w := wireMsg{
		kind:  b[0],
		reqID: binary.LittleEndian.Uint64(b[1:]),
		qpn:   binary.LittleEndian.Uint32(b[9:]),
		qpn2:  binary.LittleEndian.Uint32(b[13:]),
		psn:   binary.LittleEndian.Uint64(b[17:]),
		flag:  b[25],
	}
	svcLen, reasonLen := int(b[26]), int(b[27])
	payLen := int(binary.LittleEndian.Uint16(b[28:]))
	if len(b) < wireFixed+svcLen+reasonLen+payLen {
		return wireMsg{}, errWireShort
	}
	off := wireFixed
	w.svc = string(b[off : off+svcLen])
	off += svcLen
	w.reason = string(b[off : off+reasonLen])
	off += reasonLen
	if payLen > 0 {
		w.payload = append([]byte(nil), b[off:off+payLen]...)
	}
	return w, nil
}
