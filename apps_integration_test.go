package tcpfailover_test

import (
	"fmt"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/netstack"
)

// ftpOptions serves FTP (control port 21, data connections dialed from
// port 20) on o's testbed.
func ftpOptions(o tcpfailover.Options) tcpfailover.Options {
	o.ServerPorts = []uint16{apps.FTPControlPort, apps.FTPDataPort}
	return o
}

func ftpServer(h *netstack.Host) error {
	_, err := apps.NewFTPServer(h.TCP(), apps.DefaultFTPFiles())
	return err
}

// ftpSession is an FTP client's get, put, get and quit. Its bytes are its
// transfer results in order, and its ending the first failed operation.
type ftpSession struct {
	outcome
	loggedIn bool
	results  []apps.FTPResult
}

func dialFTP(sc *tcpfailover.Scenario) (*ftpSession, error) {
	cl, err := apps.NewFTPClient(sc.Client.TCP(), sc.Sched, tcpfailover.ClientAddr, sc.ServiceAddr())
	if err != nil {
		return nil, err
	}
	f := &ftpSession{}
	note := func(r apps.FTPResult) {
		f.read(fmt.Appendf(nil, "%s %d %d %v\n", r.Name, r.Bytes, r.BadAt, r.Err))
		if f.err == nil {
			f.err = r.Err
		}
	}
	cl.Login(func(r apps.FTPResult) { f.loggedIn = true; note(r) })
	record := func(r apps.FTPResult) { f.results = append(f.results, r); note(r) }
	cl.Get("medium.bin", record)
	cl.Put("upload.bin", 20000, record)
	cl.Get("small.txt", record)
	cl.Done = func() { f.close(sc, f.err) }
	cl.Quit()
	return f, nil
}

func runFTPGetPut(t *testing.T, sc *tcpfailover.Scenario, crashAfterLogin bool) {
	t.Helper()
	f := driven(t, sc, dialFTP)
	if crashAfterLogin {
		runUntil(t, sc, func() bool { return f.loggedIn }, time.Minute)
		sc.Group.Crash(0)
	}
	runUntil(t, sc, func() bool { return f.closed }, 10*time.Minute)
	wantBytes := []int64{18637, 20000, 1331}
	if len(f.results) != len(wantBytes) {
		t.Fatalf("got %d transfer results, want 3: %+v", len(f.results), f.results)
	}
	for i, r := range f.results {
		if r.Bytes != wantBytes[i] {
			t.Errorf("transfer %d (%s): %d bytes, want %d", i, r.Name, r.Bytes, wantBytes[i])
		}
	}
}

func TestFTPReplicatedFaultFree(t *testing.T) {
	sc := newScenario(t, ftpOptions(tcpfailover.LANOptions()), ftpServer)
	runFTPGetPut(t, sc, false)
	// The data connections are server-initiated through the bridge.
	if got := sc.Group.PrimaryBridge().Stats().ConnsOpened; got < 4 {
		t.Errorf("primary bridge tracked %d connections, want >= 4 (1 control + 3 data)", got)
	}
}

func TestFTPFailoverDuringSession(t *testing.T) {
	sc := newScenario(t, ftpOptions(tcpfailover.LANOptions()), ftpServer)
	runFTPGetPut(t, sc, true)
	if sc.Group.SecondaryBridge().Active() {
		t.Error("secondary bridge still active after primary crash")
	}
}

func TestFTPOverWAN(t *testing.T) {
	sc := newScenario(t, ftpOptions(tcpfailover.WANOptions()), ftpServer)
	runFTPGetPut(t, sc, false)
}

// TestPeerPortConnectionSurvivesCrash exercises section 7.2: the replicated
// tier opens a server-initiated connection to an unreplicated back end (a
// sink on the client host, at a peer port). Both replicas dial it and send
// the same 512 KiB; the back end must see one connection and one copy of the
// stream, including when the primary crashes halfway through. The control
// row leaves the peer port unmarked, so each replica's connection reaches
// the back end on its own.
func TestPeerPortConnectionSurvivesCrash(t *testing.T) {
	const backendPort, total = 5432, 512 * 1024
	for _, tc := range []struct {
		name      string
		peerPorts []uint16
		crash     bool
		wantConns int
	}{
		{"peer-port-crash", []uint16{backendPort}, true, 1},
		{"unmarked-control", nil, false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tcpfailover.LANOptions()
			opts.PeerPorts = tc.peerPorts
			sc := newScenario(t, opts, nil)
			sink, err := apps.NewSinkServer(sc.Client.TCP(), backendPort)
			if err != nil {
				t.Fatal(err)
			}
			var sec *apps.Transfer // the secondary's copy of the stream
			if err := sc.Group.OnEach(func(h *netstack.Host) error {
				x, err := apps.NewBulkSend(h.TCP(), sc.Sched, tcpfailover.ClientAddr, backendPort, total)
				if h == sc.Secondary {
					sec = x
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if tc.crash {
				runUntil(t, sc, func() bool { return sink.Received >= total/2 }, time.Minute)
				if sink.Received == total {
					t.Fatal("the stream finished before the crash")
				}
				sc.Group.Crash(0)
			}
			runUntil(t, sc, func() bool { return sec.Closed > 0 && sink.Conns >= tc.wantConns }, 10*time.Minute)
			if sink.Conns != tc.wantConns {
				t.Errorf("back end accepted %d connections, want %d", sink.Conns, tc.wantConns)
			}
			if !tc.crash {
				return
			}
			if sink.Received != total {
				t.Errorf("back end received %d bytes, want %d", sink.Received, total)
			}
			if !sec.Done || sec.Err != nil {
				t.Errorf("secondary's transfer: done %v, err %v", sec.Done, sec.Err)
			}
			if d := sc.Group.PrimaryBridge().Stats().Divergences; d != 0 {
				t.Errorf("primary bridge counted %d divergences", d)
			}
		})
	}
}
