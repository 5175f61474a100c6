package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/core"
	"tcpfailover/internal/netstack"
)

// The paper implements two methods of marking failover connections
// (section 7): a per-socket option and a port set. The port set is what
// every other test uses; this test exercises the per-socket method — one
// specific connection on an otherwise unprotected port is enabled, and only
// that connection survives the failover.
func TestPerSocketFailoverEnabling(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.ServerPorts = nil // nothing enabled by port
	sc := newScenario(t, opts, func(h *netstack.Host) error {
		_, err := apps.NewEchoServer(h.TCP(), 7070)
		return err
	})

	// The client's deterministic stack allocates ephemeral ports from
	// 49152, so the application can register its connection up front —
	// the moral equivalent of setting the socket option before connect.
	sc.Group.Selector().EnableTuple(core.MakeTupleKey(tcpfailover.ClientAddr, 49152, 7070))

	// The protected connection must complete as against an unreplicated
	// server: the root checker holds it to its twin.
	protected := startEchoClientPort(t, sc, 96*1024, 7070) // gets port 49152
	runUntil(t, sc, func() bool { return protected.received > 16*1024 }, time.Minute)
	// The second connection (port 49153) is NOT enabled: it talks to the
	// primary alone, like any ordinary TCP connection. It is no driven
	// client, since its twin would survive.
	unprotected, err := dialEcho(sc, sc.ServiceAddr(), 96*1024, 7070)
	if err != nil {
		t.Fatal(err)
	}
	runUntil(t, sc, func() bool { return unprotected.received > 16*1024 }, time.Minute)

	sc.Group.Crash(0)

	// The unprotected connection dies with the primary (reset by the
	// promoted secondary, or a retransmission timeout).
	runUntil(t, sc, func() bool { return unprotected.closed }, 30*time.Minute)
	if unprotected.err == nil && unprotected.received == 96*1024 {
		t.Error("unprotected connection survived the crash; selector leaked protection")
	}
}
