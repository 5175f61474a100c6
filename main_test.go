package tcpfailover_test

import (
	"fmt"
	"os"
	"testing"

	"tcpfailover/internal/check"
	"tcpfailover/internal/netbuf"
)

// TestMain runs the integration tests with the byte store poisoning every
// ring it takes back, so a read through a stale alias fails the twin check
// of the test it happens in. It counts live buffers for the quiescence
// check, and installs the build hook that watches every scenario and fails
// the run when a test builds one the root checker never reports on.
func TestMain(m *testing.M) {
	netbuf.SetPoison(true)
	netbuf.SetLeakCheck(true)
	check.OnBuild = watchBuild
	code := m.Run()
	for _, site := range unclaimed {
		fmt.Fprintf(os.Stderr, "%s: builds a scenario without newScenario, so the root checker never sees it\n", site)
		code = 1
	}
	os.Exit(code)
}
