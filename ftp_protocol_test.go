package tcpfailover_test

import (
	"io"
	"strings"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/tcp"
)

// Protocol-level FTP server tests: error replies and the LIST command,
// driven by a hand-rolled control-connection client against the replicated
// server.

// ftpProber's bytes are the reply lines it received.
type ftpProber struct {
	outcome
	conn   *tcp.Conn
	lines  []string
	buf    []byte
	script []string // commands issued one per terminal reply
	step   int
}

func startFTPProber(t *testing.T, sc *tcpfailover.Scenario, script []string) *ftpProber {
	t.Helper()
	return driven(t, sc, func(sc *tcpfailover.Scenario) (*ftpProber, error) { return dialProber(sc, script) })
}

func dialProber(sc *tcpfailover.Scenario, script []string) (*ftpProber, error) {
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), apps.FTPControlPort)
	if err != nil {
		return nil, err
	}
	p := &ftpProber{conn: conn, buf: make([]byte, 8192), script: script}
	var pending string
	conn.OnReadable(func() {
		for {
			n, rerr := conn.Read(p.buf)
			if n > 0 {
				pending += string(p.buf[:n])
				for {
					line, rest, ok := strings.Cut(pending, "\r\n")
					if !ok {
						break
					}
					pending = rest
					p.lines = append(p.lines, line)
					p.read([]byte(line + "\n"))
					p.advance()
				}
				continue
			}
			if rerr == io.EOF {
				conn.Close()
			}
			return
		}
	})
	conn.OnClose(func(err error) { p.close(sc, err) })
	return p, nil
}

// advance issues the next command after each reply that looks terminal
// (three-digit code other than 150).
func (p *ftpProber) advance() {
	last := p.lines[len(p.lines)-1]
	if len(last) < 3 || last[0] == ' ' || strings.HasPrefix(last, "150") {
		return
	}
	if p.step < len(p.script) {
		_, _ = p.conn.Write([]byte(p.script[p.step] + "\r\n"))
		p.step++
	}
}

func (p *ftpProber) hasReply(prefix string) bool {
	for _, l := range p.lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

func TestFTPErrorReplies(t *testing.T) {
	sc := newScenario(t, ftpOptions(tcpfailover.LANOptions()), ftpServer)
	p := startFTPProber(t, sc, []string{
		"RETR nonexistent.bin", // 550 before any PORT
		"STOR upload.bin",      // 425: no PORT yet
		"NOOP",                 // 502: not implemented
		"PORT 1,2,3",           // 501: malformed
		"QUIT",
	})
	runUntil(t, sc, func() bool { return p.closed }, 10*time.Minute)
	for _, want := range []string{"220", "550", "425", "502", "501", "221"} {
		if !p.hasReply(want) {
			t.Errorf("no %s reply; transcript: %q", want, p.lines)
		}
	}
}

func TestFTPListCommand(t *testing.T) {
	sc := newScenario(t, ftpOptions(tcpfailover.LANOptions()), ftpServer)
	p := startFTPProber(t, sc, []string{"LIST", "QUIT"})
	runUntil(t, sc, func() bool { return p.closed }, 10*time.Minute)
	if !p.hasReply("226") {
		t.Fatalf("LIST did not complete: %q", p.lines)
	}
	names := apps.DefaultFTPFiles().Names()
	joined := strings.Join(p.lines, "\n")
	for _, n := range names {
		if !strings.Contains(joined, n) {
			t.Errorf("listing missing %q", n)
		}
	}
}
