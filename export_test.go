package tcpfailover

// SetOnBuild installs f as the hook NewScenario calls after every
// successful build.
func SetOnBuild(f func(*Scenario)) { onBuild = f }
