package bench

import (
	"os"
	"testing"

	"tcpfailover/internal/netbuf"
)

// TestMain runs the harness's tests with the byte store poisoning every ring
// it takes back, as the root package's tests do. The crash, loss and attack
// runs check the bytes their clients receive, so a bridge queue or TCP ring
// read through a stale alias after its storage was returned fails the run
// it happens in.
func TestMain(m *testing.M) {
	netbuf.SetPoison(true)
	os.Exit(m.Run())
}
