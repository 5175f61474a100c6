package fault

import (
	"fmt"
	"time"
)

// LinkID names an Ethernet segment of the scenario topology.
type LinkID string

// The standard scenario links.
const (
	LinkServerLAN  LinkID = "server-lan"
	LinkClientLink LinkID = "client-link"
)

// Role names a host of the scenario topology for directional bindings.
type Role string

// Standard scenario roles. RoleAny (the empty string) matches any station.
const (
	RoleAny       Role = ""
	RoleClient    Role = "client"
	RoleRouter    Role = "router"
	RolePrimary   Role = "primary"
	RoleSecondary Role = "secondary"
	RoleTertiary  Role = "tertiary"
)

// Impairment binds a chain of models to one link, optionally restricted to
// one direction of traffic on the shared medium:
//
//   - From restricts the chain to frames transmitted by that role's NIC;
//     it runs at transmit time, so a dropped frame is lost to every
//     station (the paper's "lost on the wire" cases).
//   - To restricts the chain to frames received by that role's NIC; it
//     runs per receiver, so a frame can be lost at one station and
//     received by another (the paper's asymmetric loss cases). Receive-
//     side chains can only drop: corruption acts on the shared medium and
//     is therefore transmit-side only.
//
// Models apply in order; their random streams derive from the simulation
// seed, the link, and the chain position.
type Impairment struct {
	Link   LinkID
	From   Role
	To     Role
	Models []Spec
}

// validate rejects impairments the injector cannot honor.
func (imp Impairment) validate() error {
	if imp.Link == "" {
		return fmt.Errorf("fault: impairment needs a link")
	}
	if len(imp.Models) == 0 {
		return fmt.Errorf("fault: impairment on %s has no models", imp.Link)
	}
	if imp.To != RoleAny {
		for _, s := range imp.Models {
			if s.Kind == KindCorrupt {
				return fmt.Errorf("fault: model %q cannot run on the receive side (To: %q); only loss and partitions can", s.Kind, imp.To)
			}
		}
	}
	return nil
}

// Op is a failure-schedule operation.
type Op string

// Schedule operations. The crash ops fail-stop a replica host; partition
// and heal toggle a named PartitionGate.
const (
	OpCrashPrimary   Op = "crash-primary"
	OpCrashSecondary Op = "crash-secondary"
	OpCrashTertiary  Op = "crash-tertiary"
	OpPartition      Op = "partition"
	OpHeal           Op = "heal"
)

// Step is one failure-schedule entry: at absolute virtual time At, apply
// Op. Arg names the partition for OpPartition / OpHeal.
type Step struct {
	At  time.Duration
	Op  Op
	Arg string
}

// Plan is a complete declarative fault scenario: link impairments plus a
// failure schedule. A Plan contains no live state; the scenario compiles
// it against its topology (and seed) at build time.
type Plan struct {
	Impairments []Impairment
	Schedule    []Step
}
