package tcpfailover_test

import (
	"fmt"
	"slices"
	"testing"

	"tcpfailover"
	"tcpfailover/internal/apps"
	"tcpfailover/internal/fault"
	"tcpfailover/internal/ipv4"
	"tcpfailover/internal/netstack"
)

// enumDeep is set by the enumdeep build tag.
var enumDeep bool

// TestEnumerate holds the paper's promise, that the client sees what an
// unreplicated server would send it across any single loss or failure, at
// every point of a small run (the small-scope hypothesis). A schedule loses
// the k-th TCP frame at one site (k from 1), or crashes one member as soon
// as the server LAN has carried k TCP frames (k from 0), or both, and the
// root checker judges it; a clean run first counts the frames at each site.
// A schedule's subtest name is its repro, as in
// go test -run 'TestEnumerate/pair/ftp/drop/client-link/18' . Tier 1 runs
// every crash point and the pair's single losses; the enumdeep build adds
// the chain's, and for the pair's echo every two losses at one site and
// every crash point with every single loss.
func TestEnumerate(t *testing.T) {
	for i, opts := range []tcpfailover.Options{tcpfailover.LANOptions(), chainOptions()} {
		e := enumeration{members: []fault.Role{fault.RolePrimary, fault.RoleSecondary, fault.RoleTertiary}[:2+i]}
		for _, to := range append(append([]fault.Role{fault.RoleAny}, e.members...), fault.RoleRouter) {
			e.sites = append(e.sites, fault.Impairment{Link: fault.LinkServerLAN, To: to})
		}
		e.sites = append(e.sites, fault.Impairment{Link: fault.LinkClientLink})
		for _, w := range workloads {
			e.w, e.opts = w, w.serve(opts)
			n := e.census(t)
			run := func(name string, pos, k int, drops ...fault.Impairment) {
				t.Run([]string{"pair", "chain"}[i]+"/"+w.name+"/"+name, func(t *testing.T) { e.schedule(t, pos, k, drops...) })
			}
			crashes := func(each func(pos, k int, name string)) {
				for pos, m := range e.members {
					for k := 0; k <= n[0]; k++ {
						each(pos, k, fmt.Sprintf("%s/%d", m, k))
					}
				}
			}
			drops := func(each func(site, k int, name string)) {
				for site, imp := range e.sites {
					for k := 1; k <= n[site]; k++ {
						each(site, k, fmt.Sprintf("%s/%d", siteName(imp), k))
					}
				}
			}
			crashes(func(pos, k int, c string) { run("crash/"+c, pos, k) })
			if i == 0 || enumDeep {
				drops(func(site, k int, d string) { run("drop/"+d, -1, 0, e.drop(site, k)) })
			}
			if i > 0 || w.name != "echo" || !enumDeep {
				continue
			}
			drops(func(site, j int, d string) {
				for k := j + 1; k <= n[site]; k++ {
					run(fmt.Sprintf("drop2/%s+%d", d, k), -1, 0, e.drop(site, j, k))
				}
			})
			crashes(func(pos, k int, c string) {
				drops(func(site, j int, d string) { run("crash-drop/"+c+"/"+d, pos, k, e.drop(site, j)) })
			})
		}
	}
}

type workload struct {
	name    string
	serve   func(tcpfailover.Options) tcpfailover.Options
	install func(*netstack.Host) error
	start   func(*testing.T, *tcpfailover.Scenario)
}

// workloads are what the client does: an 8 KiB echo, and an FTP login, a
// 2 000-byte PUT over the data connection the server opens (section 7.2)
// and QUIT.
var workloads = []workload{
	{"echo", func(o tcpfailover.Options) tcpfailover.Options { return o }, echoServer,
		func(t *testing.T, sc *tcpfailover.Scenario) { startEchoClient(t, sc, 8192) }},
	{"ftp", ftpOptions, ftpServer, func(t *testing.T, sc *tcpfailover.Scenario) {
		driven(t, sc, dialFTP(func(cl *apps.FTPClient, record func(apps.FTPResult)) { cl.Put("upload.bin", 2000, record) }))
	}},
}

// enumeration is one setup and workload: the members a schedule crashes,
// and the sites where it loses frames, the server LAN's transmit side first.
type enumeration struct {
	opts    tcpfailover.Options
	w       workload
	members []fault.Role
	sites   []fault.Impairment // without models
}

func siteName(imp fault.Impairment) string {
	switch {
	case imp.Link == fault.LinkClientLink:
		return "client-link"
	case imp.To == fault.RoleAny:
		return "server-lan-tx"
	}
	return "rx-" + string(imp.To)
}

// tcpFrames is the site calling next on each TCP frame and losing it if
// next says so.
func (e enumeration) tcpFrames(site int, times int, next func() bool) fault.Impairment {
	imp := e.sites[site]
	imp.Models = []fault.Spec{fault.DropWhen(func(p []byte) bool { return isTCP(p) && next() }, times)}
	return imp
}

func isTCP(p []byte) bool {
	hdr, _, err := ipv4.Unmarshal(p)
	return err == nil && hdr.Protocol == ipv4.ProtoTCP
}

// drop is the site losing its TCP frames numbered ks, counted from 1.
func (e enumeration) drop(site int, ks ...int) fault.Impairment {
	n := 0
	return e.tcpFrames(site, len(ks), func() bool { n++; return slices.Contains(ks, n) })
}

// census runs the workload with nothing lost, under the checker, and
// returns the TCP frames each site carried.
func (e enumeration) census(t *testing.T) []int {
	n, opts := make([]int, len(e.sites)), e.opts
	opts.Faults = &fault.Plan{}
	for i := range e.sites {
		opts.Faults.Impairments = append(opts.Faults.Impairments, e.tcpFrames(i, 0, func() bool { n[i]++; return false }))
	}
	c, err := build(opts, e.w.install)
	if err != nil {
		t.Fatal(err)
	}
	e.w.start(t, c.sc)
	report(t, e.w.name+" clean run: ", c.violations())
	return n
}

// schedule runs the workload with drops, and crashes member pos (if not -1)
// as soon as the server LAN has carried k TCP frames; the checker judges
// the run. With a drop the k-th frame may never come: then no member
// crashes.
func (e enumeration) schedule(t *testing.T, pos, k int, drops ...fault.Impairment) {
	var sc *tcpfailover.Scenario
	crashed, served := false, 0
	crash := func() { crashed = true; sc.Group.Crash(pos) }
	t.Cleanup(func() { // after the checker's, so on the drained run
		if got := sc.Faults.Stats().Dropped; pos < 0 && got != int64(drops[0].Models[0].Times) || len(drops) == 0 && !crashed {
			t.Errorf("dropped %d frames; crashed %v", got, crashed)
		}
	})
	opts := e.opts
	opts.Faults = &fault.Plan{Impairments: append([]fault.Impairment{e.tcpFrames(0, 0, func() bool {
		if served++; served == k && pos >= 0 {
			sc.Sched.After(0, "enumerate.crash", crash)
		}
		return false
	})}, drops...)}
	sc = newScenario(t, opts, e.w.install)
	e.w.start(t, sc)
	if pos >= 0 && k == 0 {
		crash()
	}
}
