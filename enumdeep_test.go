//go:build enumdeep

package tcpfailover_test

// The enumerator's wider arms (TestEnumerate) run in this build.
func init() { enumDeep = true }
