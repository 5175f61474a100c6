package tcpfailover_test

import (
	"fmt"
	"testing"
	"time"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/netstack"
	"tcpfailover/internal/tcp"
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

// ftpSession is an FTP client's login, transfers and quit. Its bytes are its
// transfer results in order, and its ending the first failed operation.
type ftpSession struct {
	outcome
	loggedIn bool
	results  []apps.FTPResult
}

// dialFTP returns a dialer for an FTP session that logs in, queues its
// transfers with ops, each reporting to record, and quits.
func dialFTP(ops func(cl *apps.FTPClient, record func(apps.FTPResult))) func(*tcpfailover.Scenario) (*ftpSession, error) {
	return func(sc *tcpfailover.Scenario) (*ftpSession, error) {
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
		ops(cl, func(r apps.FTPResult) { f.results = append(f.results, r); note(r) })
		cl.Done = func() { f.close(sc, f.err) }
		cl.Quit()
		return f, nil
	}
}

// getPutGet is a get, a 20 000-byte put and a get.
func getPutGet(cl *apps.FTPClient, record func(apps.FTPResult)) {
	cl.Get("medium.bin", record)
	cl.Put("upload.bin", 20000, record)
	cl.Get("small.txt", record)
}

func runFTPGetPut(t *testing.T, sc *tcpfailover.Scenario, crashAfterLogin bool) {
	t.Helper()
	f := driven(t, sc, dialFTP(getPutGet))
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

// TestPoisonedScratchAcrossAppShapes runs the benchmark's application shapes
// through the pair at once, under the checker: stream-recv (128 KiB replies
// asked for one after another on one connection), stream-send (a 128 KiB
// upload to a pattern-checking receiver on each member), HTTP pages and an
// FTP session. TestMain's netbuf.SetPoison fills the event loop's scratch
// with poison each time an application asks for it, so one that relied on
// the buffer across a Write or a callback, its own or one on another host
// of the loop, reads poison: a pattern mismatch here or a twin difference.
func TestPoisonedScratchAcrossAppShapes(t *testing.T) {
	const rrPort, uploadPort, size = 9000, 9001, 128 << 10
	opts := ftpOptions(tcpfailover.LANOptions())
	opts.ServerPorts = append(opts.ServerPorts, 80, rrPort, uploadPort)
	var uploads []*apps.Receiver
	sc := newScenario(t, opts, func(h *netstack.Host) error {
		_, err := h.TCP().Listen(uploadPort, func(c *tcp.Conn) { uploads = append(uploads, apps.NewReceiver(c, h.Scheduler())) })
		if err == nil {
			_, err = apps.NewReqReplyServer(h.TCP(), rrPort)
		}
		if err == nil {
			_, err = apps.NewHTTPServer(h.TCP(), 80)
		}
		if err == nil {
			err = ftpServer(h)
		}
		return err
	})
	type upload struct {
		outcome
		tr *apps.Transfer
	}
	type web struct {
		outcome
		cl *apps.HTTPClient
	}
	recv := driven(t, sc, func(sc *tcpfailover.Scenario) (*rrStream, error) { return dialRRStream(sc, rrPort, 3, size) })
	send := driven(t, sc, func(sc *tcpfailover.Scenario) (*upload, error) {
		tr, err := apps.NewBulkSend(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), uploadPort, size)
		u := &upload{tr: tr}
		if err == nil {
			tr.OnClosed = func(err error) { u.close(sc, err) }
		}
		return u, err
	})
	pages := []int64{1 << 10, 40 << 10, 100 << 10}
	page := driven(t, sc, func(sc *tcpfailover.Scenario) (*web, error) {
		cl, err := apps.NewHTTPClient(sc.Client.TCP(), sc.Sched, sc.ServiceAddr(), 80)
		w := &web{cl: cl}
		var get func(i int)
		get = func(i int) {
			if i < len(pages) {
				cl.Get(pages[i], i == len(pages)-1, func() { get(i + 1) })
			}
		}
		if err == nil {
			cl.OnClosed = func(err error) { w.read(fmt.Append(nil, cl.Got, cl.BadBody)); w.close(sc, err) }
			get(0)
		}
		return w, err
	})
	ftp := driven(t, sc, dialFTP(getPutGet))
	runUntil(t, sc, func() bool { return recv.closed && send.closed && page.closed && ftp.closed }, 10*time.Minute)
	if recv.received != 3*size || recv.badAt >= 0 || recv.err != nil {
		t.Errorf("stream-recv: %d bytes, corrupt at %d, err %v; want %d clean", recv.received, recv.badAt, recv.err, 3*size)
	}
	if send.tr.Sent != size || send.err != nil || len(uploads) != 2 {
		t.Errorf("stream-send: sent %d, err %v, %d member receivers; want %d, nil, 2", send.tr.Sent, send.err, len(uploads), size)
	}
	for i, u := range uploads {
		if u.Received != size || u.BadAt >= 0 {
			t.Errorf("stream-send: member receiver %d got %d bytes, corrupt at %d; want %d clean", i, u.Received, u.BadAt, size)
		}
	}
	if page.cl.Got != 141<<10 || page.cl.Responses != 3 || page.cl.BadBody || page.err != nil {
		t.Errorf("web: %d body bytes in %d responses, bad body %v, err %v; want %d in 3, clean", page.cl.Got, page.cl.Responses, page.cl.BadBody, page.err, 141<<10)
	}
	if len(ftp.results) != 3 || ftp.err != nil {
		t.Errorf("ftp: results %+v, err %v; want 3 clean", ftp.results, ftp.err)
	}
	for _, r := range ftp.results {
		if r.BadAt >= 0 {
			t.Errorf("ftp %s: corrupt at %d", r.Name, r.BadAt)
		}
	}
}

// rrStream is the stream-recv client: on one connection it asks
// apps.NewReqReplyServer for replies of size bytes, the next once the last
// is in, checks each against the pattern (every reply restarts it) and
// closes after the last.
type rrStream struct {
	outcome
	badAt int64 // the first corrupt stream offset, or -1
}

func dialRRStream(sc *tcpfailover.Scenario, port uint16, replies, size int64) (*rrStream, error) {
	conn, err := sc.Client.TCP().Dial(sc.ServiceAddr(), port)
	if err != nil {
		return nil, err
	}
	s := &rrStream{badAt: -1}
	ask := func() { _, _ = conn.Write([]byte{byte(size >> 24), byte(size >> 16), byte(size >> 8), byte(size)}) }
	buf := make([]byte, 16<<10)
	conn.OnEstablished(ask)
	conn.OnReadable(func() {
		for n, _ := conn.Read(buf); n > 0; n, _ = conn.Read(buf) {
			if i := apps.VerifyPattern(buf[:n], s.received%size); i >= 0 && s.badAt < 0 {
				s.badAt = s.received + int64(i)
			}
			s.read(buf[:n])
			if s.received == replies*size {
				conn.Close()
			} else if s.received%size == 0 {
				ask()
			}
		}
	})
	conn.OnClose(func(err error) { s.close(sc, err) })
	return s, nil
}
