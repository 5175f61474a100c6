package tcpfailover_test

import (
	"fmt"
	"os"
	"testing"

	"tcpfailover"
	"tcpfailover/internal/netbuf"
)

// TestMain runs the integration tests with the byte store poisoning every
// ring it takes back, so a bridge queue or TCP ring read through a stale
// alias after its storage was returned fails the root checker's twin
// comparison in the test it happens in. It counts live buffers for the
// checker's quiescence check, and installs the build hook that fails the run
// when a test builds a scenario the checker never sees.
func TestMain(m *testing.M) {
	netbuf.SetPoison(true)
	netbuf.SetLeakCheck(true)
	tcpfailover.SetOnBuild(policeBuild)
	code := m.Run()
	for _, site := range unclaimed {
		fmt.Fprintf(os.Stderr, "%s: builds a scenario without newScenario, so the root checker never sees it\n", site)
		code = 1
	}
	os.Exit(code)
}
