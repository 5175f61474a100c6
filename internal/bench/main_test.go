package bench

import (
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"tcpfailover/internal/check"
	"tcpfailover/internal/netbuf"
)

// TestMain runs the harness's tests with the byte store poisoning every ring
// it takes back, as the root package's tests do: a bridge queue or TCP ring
// read through a stale alias fails the crash, loss or attack run it happens
// in. Every scenario runs under the checker's online rules (DESIGN.md
// section 8.2); a violation fails the run, named by seed and rule.
func TestMain(m *testing.M) {
	netbuf.SetPoison(true)
	check.OnBuild = watch
	code := m.Run()
	for _, k := range slices.Sorted(maps.Keys(flagged)) {
		fmt.Fprintf(os.Stderr, "checker: %s: %d violations, the first: %s\n", k, len(flagged[k]), flagged[k][0])
		code = 1
	}
	os.Exit(code)
}

var flaggedMu sync.Mutex            // parallelEach runs scenarios on several goroutines
var flagged = map[string][]string{} // what was found, by "seed S: rule"

// watch is the build hook: it holds tb to the checker's online rules.
func watch(tb check.Testbed) {
	check.Watch(tb, func(v string) {
		rule, what, _ := strings.Cut(v, ": ")
		key := fmt.Sprintf("seed %d: %s", tb.Seed, rule)
		flaggedMu.Lock()
		flagged[key] = append(flagged[key], what)
		flaggedMu.Unlock()
	})
}

// unchecked clears the build hook until the function it returns restores
// it. A gate on the simulator's own allocations builds its scenario
// unchecked: the checker's records would be most of what the gate reads.
func unchecked() (restore func()) {
	f := check.OnBuild
	check.OnBuild = nil
	return func() { check.OnBuild = f }
}
