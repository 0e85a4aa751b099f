// Package probeinfer implements the timing side channel the paper
// hypothesizes behind BIG-IP ASM's bot defense (§4.3.2): even when the
// Same-Origin Policy makes a response unreadable, a script can deduce
// whether a localhost port is active, because "a request to an active
// localhost port returns quickly (even if the response cannot be read),
// while a request to an inactive port will time out" — and on loopback,
// an inactive port refuses instantly while a filtered one hangs.
//
// Given the flows of a probe run, the inferencer assigns each
// destination port a state with the evidence used, exactly what the
// scanning script (or an analyst reconstructing its view) can learn.
package probeinfer

import (
	"fmt"
	"sort"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/localnet"
	"github.com/knockandtalk/knockandtalk/internal/netlog"
)

// State is the inferred disposition of a probed port.
type State int

// Port states.
const (
	StateUnknown State = iota
	StateOpen
	StateClosed
	StateFiltered
)

// String labels the state.
func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateClosed:
		return "closed"
	case StateFiltered:
		return "filtered"
	default:
		return "unknown"
	}
}

// fastThreshold separates an immediate local answer (SYN-ACK or RST)
// from a hang. Loopback and LAN answers land in microseconds to
// milliseconds; connect timeouts take seconds.
const fastThreshold = 500 * time.Millisecond

// Inference is the verdict for one probed destination.
type Inference struct {
	Host     string
	Port     uint16
	State    State
	Evidence string
	Elapsed  time.Duration
}

// Key returns "host:port".
func (i Inference) Key() string { return fmt.Sprintf("%s:%d", i.Host, i.Port) }

// FromFindings infers port states from detected local requests. The
// input is what localnet extracts from a visit's NetLog; only local
// destinations are considered (the side channel is about the visitor's
// own network).
func FromFindings(findings []localnet.Finding, elapsed func(f localnet.Finding) time.Duration) []Inference {
	var out []Inference
	for _, f := range findings {
		inf := Inference{Host: f.Host, Port: f.Port}
		d := time.Duration(0)
		if elapsed != nil {
			d = elapsed(f)
		}
		inf.Elapsed = d
		switch {
		case f.StatusCode != 0:
			// Any response — even an opaque or failed handshake with a
			// status — proves a listener.
			inf.State = StateOpen
			inf.Evidence = fmt.Sprintf("response status %d", f.StatusCode)
		case f.NetError == "ERR_SSL_PROTOCOL_ERROR" || f.NetError == "ERR_INVALID_HTTP_RESPONSE" || f.NetError == "ERR_EMPTY_RESPONSE":
			// The connection was accepted and then the protocol failed:
			// something non-HTTP is listening (the remote-desktop case).
			inf.State = StateOpen
			inf.Evidence = "accepted then " + f.NetError
		case f.NetError == "ERR_CONNECTION_REFUSED":
			inf.State = StateClosed
			inf.Evidence = "immediate refusal"
		case f.NetError == "ERR_CONNECTION_TIMED_OUT":
			inf.State = StateFiltered
			inf.Evidence = "connect timeout"
		case f.NetError == "" && elapsed != nil && d > 0 && d < fastThreshold:
			inf.State = StateOpen
			inf.Evidence = fmt.Sprintf("fast completion (%v)", d.Round(time.Microsecond))
		default:
			inf.State = StateUnknown
			inf.Evidence = orDash(f.NetError)
		}
		out = append(out, inf)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// FromLogFindings infers port states for findings already extracted
// from log, using each flow's own duration as the timing signal. It is
// the entry point for callers that have run detection themselves — the
// visit pipeline runs localnet once and feeds both the store records
// and this side channel from the same findings pass.
func FromLogFindings(log *netlog.Log, findings []localnet.Finding) []Inference {
	durations := map[string]time.Duration{}
	for _, flow := range log.FlowStats(nil) {
		durations[flow.URL] = flow.Duration()
	}
	return FromFindings(findings, func(f localnet.Finding) time.Duration {
		return durations[f.URL]
	})
}

// FromLog runs detection and inference over a visit's NetLog. It is a
// convenience wrapper for callers holding only the raw capture; when
// the findings are already in hand, use FromLogFindings and skip the
// second detection pass.
func FromLog(log *netlog.Log) []Inference {
	return FromLogFindings(log, localnet.FromLog(log))
}

// Profile summarizes an inference run the way an anti-abuse backend
// would consume it: which ports answered.
type Profile struct {
	Open     []uint16
	Closed   []uint16
	Filtered []uint16
}

// Summarize folds inferences into a host profile.
func Summarize(infs []Inference) Profile {
	var p Profile
	for _, inf := range infs {
		switch inf.State {
		case StateOpen:
			p.Open = append(p.Open, inf.Port)
		case StateClosed:
			p.Closed = append(p.Closed, inf.Port)
		case StateFiltered:
			p.Filtered = append(p.Filtered, inf.Port)
		}
	}
	return p
}

// Suspicious reports whether the profile matches what the anti-abuse
// vendors treat as a remote-control indicator: any of the probed
// remote-desktop or malware ports answering.
func (p Profile) Suspicious() bool { return len(p.Open) > 0 }

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
