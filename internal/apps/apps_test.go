package apps

import (
	"testing"
	"time"

	"tcpfailover/internal/ipv4"
)

func TestPatternVerifyRoundTrip(t *testing.T) {
	buf := make([]byte, 10000)
	Pattern(buf, 12345)
	if i := VerifyPattern(buf, 12345); i != -1 {
		t.Fatalf("self-verify failed at %d", i)
	}
	// Chunked generation matches whole generation.
	a := make([]byte, 1000)
	b := make([]byte, 1000)
	Pattern(a, 0)
	Pattern(b[:500], 0)
	Pattern(b[500:], 500)
	if string(a) != string(b) {
		t.Error("chunked pattern differs from whole pattern")
	}
	// Corruption is found at the right offset.
	buf[777] ^= 0xff
	if i := VerifyPattern(buf, 12345); i != 777 {
		t.Errorf("corruption reported at %d, want 777", i)
	}
}

func TestLineReader(t *testing.T) {
	var lr lineReader
	if lines := lr.feed([]byte("partial")); len(lines) != 0 {
		t.Fatalf("incomplete line returned: %v", lines)
	}
	lines := lr.feed([]byte(" line\r\nsecond\nthird"))
	if len(lines) != 2 || lines[0] != "partial line" || lines[1] != "second" {
		t.Fatalf("lines = %q", lines)
	}
	if lines := lr.feed([]byte("\n")); len(lines) != 1 || lines[0] != "third" {
		t.Fatalf("final line = %q", lines)
	}
}

func TestPortArgRoundTrip(t *testing.T) {
	addr := ipv4.MustParseAddr("10.0.2.1")
	for _, port := range []uint16{1, 80, 40000, 65535} {
		s := formatPortArg(addr, port)
		gotAddr, gotPort, err := parsePortArg(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if gotAddr != addr || gotPort != port {
			t.Errorf("round trip %q -> %v:%d", s, gotAddr, gotPort)
		}
	}
	for _, bad := range []string{"", "1,2,3", "1,2,3,4,5,6,7", "300,0,0,1,0,80", "a,b,c,d,e,f"} {
		if _, _, err := parsePortArg(bad); err == nil {
			t.Errorf("parsePortArg(%q) accepted", bad)
		}
	}
}

func TestFTPFilesNamesSorted(t *testing.T) {
	files := DefaultFTPFiles()
	names := files.Names()
	if len(names) != 5 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if files[names[i-1]] > files[names[i]] {
			t.Errorf("names not sorted by size: %v", names)
		}
	}
}

func TestPacingCost(t *testing.T) {
	p := Pacing{Fixed: 100 * time.Microsecond, PerKB: 10 * time.Microsecond}
	if got := p.Cost(2048); got != 120*time.Microsecond {
		t.Errorf("Cost(2048) = %v", got)
	}
	var zero Pacing
	if !zero.zero() || zero.Cost(1000) != 0 {
		t.Error("zero pacing misbehaves")
	}
}
