package tcpfailover_test

import (
	"os"
	"testing"

	"tcpfailover/internal/netbuf"
)

// TestMain runs the integration tests with the byte store poisoning every
// ring it takes back. Each of them verifies the payload its client
// receives, so a bridge queue or TCP ring read through a stale alias after
// its storage was returned fails the test it happens in.
func TestMain(m *testing.M) {
	netbuf.SetPoison(true)
	os.Exit(m.Run())
}
