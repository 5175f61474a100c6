package tcpfailover_test

import (
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/netstack"
)

// ftpScenario builds a replicated FTP service (control port 21, data
// connections dialed from port 20).
func ftpScenario(t *testing.T, opts tcpfailover.Options) *tcpfailover.Scenario {
	t.Helper()
	opts.ServerPorts = []uint16{apps.FTPControlPort, apps.FTPDataPort}
	sc, err := tcpfailover.NewScenario(opts)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	install := func(h *netstack.Host) error {
		_, err := apps.NewFTPServer(h.TCP(), apps.DefaultFTPFiles())
		return err
	}
	if sc.Group != nil {
		if err := sc.Group.OnEach(install); err != nil {
			t.Fatalf("install ftp: %v", err)
		}
	} else if err := install(sc.Primary); err != nil {
		t.Fatalf("install ftp: %v", err)
	}
	sc.Start()
	return sc
}

func runFTPGetPut(t *testing.T, sc *tcpfailover.Scenario, crashAfterLogin bool) {
	t.Helper()
	cl, err := apps.NewFTPClient(sc.Client.TCP(), sc.Sched, tcpfailover.ClientAddr, sc.ServiceAddr())
	if err != nil {
		t.Fatalf("ftp client: %v", err)
	}
	var results []apps.FTPResult
	record := func(r apps.FTPResult) { results = append(results, r) }
	cl.Login(func(r apps.FTPResult) {
		if r.Err != nil {
			t.Errorf("login: %v", r.Err)
		}
		if crashAfterLogin {
			sc.Group.CrashPrimary()
		}
	})
	cl.Get("medium.bin", record)
	cl.Put("upload.bin", 20000, record)
	cl.Get("small.txt", record)
	done := false
	cl.Done = func() { done = true }
	cl.Quit()

	if err := sc.RunUntil(func() bool { return done }, 10*time.Minute); err != nil {
		t.Fatalf("run: %v (results=%+v)", err, results)
	}
	if len(results) != 3 {
		t.Fatalf("got %d transfer results, want 3: %+v", len(results), results)
	}
	wantBytes := []int64{18637, 20000, 1331}
	for i, r := range results {
		if r.Err != nil {
			t.Errorf("transfer %d (%s): %v", i, r.Name, r.Err)
		}
		if r.Bytes != wantBytes[i] {
			t.Errorf("transfer %d (%s): %d bytes, want %d", i, r.Name, r.Bytes, wantBytes[i])
		}
		if r.BadAt >= 0 {
			t.Errorf("transfer %d (%s): corruption at %d", i, r.Name, r.BadAt)
		}
	}
}

func TestFTPReplicatedFaultFree(t *testing.T) {
	sc := ftpScenario(t, tcpfailover.LANOptions())
	runFTPGetPut(t, sc, false)
	// The data connections are server-initiated through the bridge.
	if got := sc.Group.PrimaryBridge().Stats().ConnsOpened; got < 4 {
		t.Errorf("primary bridge tracked %d connections, want >= 4 (1 control + 3 data)", got)
	}
}

func TestFTPStandardBaseline(t *testing.T) {
	opts := tcpfailover.LANOptions()
	opts.Unreplicated = true
	sc := ftpScenario(t, opts)
	runFTPGetPut(t, sc, false)
}

func TestFTPFailoverDuringSession(t *testing.T) {
	sc := ftpScenario(t, tcpfailover.LANOptions())
	runFTPGetPut(t, sc, true)
	if sc.Group.SecondaryBridge().Active() {
		t.Error("secondary bridge still active after primary crash")
	}
}

func TestFTPOverWAN(t *testing.T) {
	sc := ftpScenario(t, tcpfailover.WANOptions())
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
			sc, err := tcpfailover.NewScenario(opts)
			if err != nil {
				t.Fatal(err)
			}
			sink, err := apps.NewSinkServer(sc.Client.TCP(), backendPort)
			if err != nil {
				t.Fatal(err)
			}
			sc.Start()
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
				if err := sc.RunUntil(func() bool { return sink.Received >= total/2 }, time.Minute); err != nil {
					t.Fatalf("first half: %v (received %d)", err, sink.Received)
				}
				if sink.Received == total {
					t.Fatal("the stream finished before the crash")
				}
				sc.Group.CrashPrimary()
			}
			if err := sc.RunUntil(func() bool { return sec.Closed > 0 && sink.Conns >= tc.wantConns }, 10*time.Minute); err != nil {
				t.Fatalf("run: %v (received %d, conns %d)", err, sink.Received, sink.Conns)
			}
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
