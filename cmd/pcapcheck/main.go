// Command pcapcheck verifies the framing of capture files written by the
// obs flight recorder (or anything else producing nanosecond pcap with
// raw-IP packets). It is a pure-Go stand-in for "tcpdump -r" in
// environments without libpcap: CI uses it to prove that the files
// failover-trace -pcap writes are structurally sound.
//
// Usage:
//
//	pcapcheck file.pcap [file2.pcap ...]
//
// Exit status is non-zero if any file fails verification.
package main

import (
	"bufio"
	"fmt"
	"os"

	"tcpfailover/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: pcapcheck FILE...")
		os.Exit(2)
	}
	failed := false
	for _, path := range os.Args[1:] {
		n, err := checkFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcapcheck: %s: %v\n", path, err)
			failed = true
			continue
		}
		fmt.Printf("%s: ok, pcap, %d packets\n", path, n)
	}
	if failed {
		os.Exit(1)
	}
}

func checkFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return obs.VerifyPcap(bufio.NewReader(f))
}
