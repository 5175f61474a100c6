package tcpfailover

// SetOnBuild installs f as the hook NewScenario and NewCells call after
// every successful build.
func SetOnBuild(f func(*Scenario)) { onBuild = f }
