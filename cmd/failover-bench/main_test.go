package main

import (
	"os"
	"strings"
	"testing"

	"tcpfailover/internal/bench"
)

// TestUsageMatchesDocs keeps the two hand-written copies of the usage text —
// this command's doc comment and README.md — equal to what -h prints: the
// command's synopsis followed by the experiment table's bench.Usage().
func TestUsageMatchesDocs(t *testing.T) {
	usage := synopsis + bench.Usage()
	for _, doc := range []struct{ path, indent string }{
		{"main.go", "//\t"},
		{"../../README.md", ""},
	} {
		blob, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		// Compare whole lines, ignoring the indentation the document wraps
		// the block in.
		text := "\n" + string(blob)
		var missing []string
		for _, line := range strings.Split(strings.TrimRight(usage, "\n"), "\n") {
			want := strings.TrimRight(doc.indent+line, " \t")
			if line == "" {
				continue
			}
			if !strings.Contains(text, "\n"+want+"\n") {
				missing = append(missing, want)
			}
		}
		if len(missing) > 0 {
			t.Errorf("%s is missing these lines of the usage text (regenerate from failover-bench -h):\n%s",
				doc.path, strings.Join(missing, "\n"))
		}
	}
}
