// Package table2 starts the baselines of the paper's Table 2 — RawWrite,
// HERD, FaSST and Octopus's selfRPC — by name, so every harness that
// compares transports shares one switch.
package table2

import (
	"fmt"
	"strings"

	"scalerpc/internal/baseline/fasstrpc"
	"scalerpc/internal/baseline/herdrpc"
	"scalerpc/internal/baseline/rawrpc"
	"scalerpc/internal/baseline/selfrpc"
	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// Connect builds one client endpoint of a started server on ch; sig is the
// client thread's activity signal.
type Connect = func(ch *host.Host, sig *sim.Signal) rpccore.Conn

// Start builds the named transport's server on h with its default
// configuration, lets register install the handlers, starts it and returns
// its connect function. Names match case-insensitively: rawwrite, herd,
// fasst, selfrpc.
func Start(name string, h *host.Host, register func(rpccore.Server)) (Connect, error) {
	switch strings.ToLower(name) {
	case "rawwrite":
		return started(rawrpc.NewServer(h, rawrpc.DefaultServerConfig()), register, (*rawrpc.Server).Connect), nil
	case "herd":
		return started(herdrpc.NewServer(h, herdrpc.DefaultServerConfig()), register, (*herdrpc.Server).Connect), nil
	case "fasst":
		return started(fasstrpc.NewServer(h, fasstrpc.DefaultServerConfig()), register, (*fasstrpc.Server).Connect), nil
	case "selfrpc":
		return started(selfrpc.NewServer(h, selfrpc.DefaultServerConfig()), register, (*selfrpc.Server).Connect), nil
	}
	return nil, fmt.Errorf("table2: unknown transport %q", name)
}

func started[S rpccore.Server, C rpccore.Conn](s S, register func(rpccore.Server), connect func(S, *host.Host, *sim.Signal) C) Connect {
	register(s)
	s.Start()
	return func(ch *host.Host, sig *sim.Signal) rpccore.Conn { return connect(s, ch, sig) }
}
