package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// TestRejectsImpossibleTransfer: a transfer of no bytes, or a crash point
// past its end, is refused with an error naming the flag before a scenario
// is built or a line printed, instead of running the simulation until a
// deadline gives up on it.
func TestRejectsImpossibleTransfer(t *testing.T) {
	stdout := os.Stdout
	defer func() { os.Stdout = stdout }()
	for _, tc := range []struct {
		total, crashAt int64
		flag           string
	}{{-5, -1, "-bytes"}, {0, -1, "-bytes"}, {1000, 5000, "-crash-at"}} {
		out, err := os.CreateTemp(t.TempDir(), "stdout")
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = out
		err = run(1, tc.total, tc.crashAt, false, "client", "", "")
		printed, _ := out.Seek(0, io.SeekCurrent)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") || printed != 0 {
			t.Errorf("-bytes %d -crash-at %d: error %v after %d bytes of output, want one naming %s and no output",
				tc.total, tc.crashAt, err, printed, tc.flag)
		}
		out.Close()
	}
}
