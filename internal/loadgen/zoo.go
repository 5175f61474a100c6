package loadgen

import (
	"fmt"
	"time"
)

// The workload zoo: named traffic shapes, each parameterized only by its
// mean offered load. Its one workload, web, is Poisson arrivals of a churn
// mix: short keep-alive HTTP sessions, a slice of long bulk transfers, and
// heavy-tailed sizes.

// Session describes the per-connection churn: how many requests a
// keep-alive session issues, how large each response is, the think gap
// between them, and the bulk-transfer slice of the arrival mix.
type Session struct {
	// Requests samples requests per keep-alive session (>= 1).
	Requests Sampler
	// Sizes samples the response body bytes of each keep-alive request.
	Sizes Sampler
	// Think is the gap between a response's last byte and the next request.
	Think time.Duration
	// BulkProb is the probability an arrival is instead one long bulk GET.
	BulkProb float64
	// BulkSizes samples bulk transfer sizes.
	BulkSizes Sampler
}

// Spec is one workload: an arrival process plus the session mix it feeds.
type Spec struct {
	Arrivals Poisson
	Session  Session
}

// webSession is the web churn mix: geometric keep-alive sessions
// (mean 3 requests), lognormal-body/Pareto-tail response sizes (median
// 4 KB, 5% tail draws from a 32 KB-scale alpha=1.3 Pareto), 10 ms think
// time, and 5% of arrivals being 128 KB-scale alpha=1.5 bulk pulls.
func webSession() Session {
	return Session{
		Requests: Geometric{Mean: 3},
		Sizes: Clamp{
			S: Mix{
				Body:     Lognormal{Median: 4096, Sigma: 1.0},
				Tail:     Pareto{Scale: 32 * 1024, Alpha: 1.3},
				TailProb: 0.05,
			},
			Min: 64, Max: 1 << 20,
		},
		Think:    10 * time.Millisecond,
		BulkProb: 0.05,
		BulkSizes: Clamp{
			S:   Pareto{Scale: 128 * 1024, Alpha: 1.5},
			Min: 128 * 1024, Max: 2 << 20,
		},
	}
}

// Zoo returns the named workload at the given mean offered load
// (sessions/second). The only valid name is web.
func Zoo(name string, rate float64) (Spec, error) {
	if rate <= 0 {
		return Spec{}, fmt.Errorf("loadgen: offered load must be positive, got %g", rate)
	}
	if name != "web" {
		return Spec{}, fmt.Errorf("loadgen: unknown workload %q (valid: web)", name)
	}
	return Spec{Arrivals: Poisson{Rate: rate}, Session: webSession()}, nil
}
