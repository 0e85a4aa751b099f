// Package hostenv models the crawling machines: the three desktop
// operating systems the paper measured on (Windows 10, Ubuntu 20.04,
// Mac OS X 10.15.6), each with its own user agent, localhost service
// table, and LAN device inventory.
//
// OS differences are the mechanism behind the paper's central OS-skew
// finding: websites branch on the user agent (serving Windows-only
// scanning scripts), and connection attempts to local ports succeed or
// fail depending on what the host is actually running.
package hostenv

import (
	"fmt"
	"net/netip"

	"github.com/knockandtalk/knockandtalk/internal/simnet"
)

// OS identifies a desktop operating system.
type OS int

// The three measured OSes.
const (
	Windows OS = iota
	Linux
	MacOSX
)

// AllOS lists the OSes in the paper's table order (W, L, M).
var AllOS = []OS{Windows, Linux, MacOSX}

// String returns the short label used in the paper's tables.
func (o OS) String() string {
	switch o {
	case Windows:
		return "Windows"
	case Linux:
		return "Linux"
	case MacOSX:
		return "Mac"
	default:
		return fmt.Sprintf("OS(%d)", int(o))
	}
}

// Letter returns the single-letter column label (W/L/M).
func (o OS) Letter() string {
	switch o {
	case Windows:
		return "W"
	case Linux:
		return "L"
	case MacOSX:
		return "M"
	default:
		return "?"
	}
}

// ParseOS reverses String and Letter.
func ParseOS(s string) (OS, error) {
	switch s {
	case "Windows", "W", "windows":
		return Windows, nil
	case "Linux", "L", "linux":
		return Linux, nil
	case "Mac", "M", "mac", "MacOSX", "macos":
		return MacOSX, nil
	default:
		return 0, fmt.Errorf("hostenv: unknown OS %q", s)
	}
}

// User agents for Chrome v84 (the crawler's browser) on each OS.
var userAgents = map[OS]string{
	Windows: "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/84.0.4147.89 Safari/537.36",
	Linux:   "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/84.0.4147.89 Safari/537.36",
	MacOSX:  "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_6) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/84.0.4147.89 Safari/537.36",
}

// UserAgent returns the Chrome v84 user agent string for the OS.
func (o OS) UserAgent() string { return userAgents[o] }

// Profile is one crawling machine: an OS plus its local network view.
// It implements simnet.Locator for every non-public address space.
type Profile struct {
	OS      OS
	Version string
	Vantage simnet.Vantage

	localhost map[uint16]simnet.Endpoint
	lanHosts  map[netip.Addr]bool
	lan       map[lanKey]simnet.Endpoint
}

type lanKey struct {
	addr netip.Addr
	port uint16
}

// NewProfile returns a machine with empty local tables: every localhost
// port refuses (clean VM) and every LAN address is unreachable.
func NewProfile(os OS, version string, vantage simnet.Vantage) *Profile {
	return &Profile{
		OS:        os,
		Version:   version,
		Vantage:   vantage,
		localhost: make(map[uint16]simnet.Endpoint),
		lanHosts:  make(map[netip.Addr]bool),
		lan:       make(map[lanKey]simnet.Endpoint),
	}
}

// ListenLocal binds an endpoint on a localhost port.
func (p *Profile) ListenLocal(port uint16, ep simnet.Endpoint) {
	p.localhost[port] = ep
}

// ListenLocalService binds an accepting service on a localhost port.
func (p *Profile) ListenLocalService(port uint16, svc simnet.Service) {
	p.ListenLocal(port, simnet.Endpoint{Outcome: simnet.DialAccepted, Service: svc})
}

// BindLAN attaches an endpoint on a LAN device's port, registering the
// device if needed.
func (p *Profile) BindLAN(addr netip.Addr, port uint16, ep simnet.Endpoint) {
	p.lanHosts[addr] = true
	p.lan[lanKey{addr, port}] = ep
}

// Locate implements simnet.Locator for destinations local to this
// machine. Loopback ports with no listener are actively refused (the OS
// answers with RST immediately); LAN addresses with no device silently
// time out (nothing answers ARP); live LAN devices refuse unbound ports.
func (p *Profile) Locate(addr netip.Addr, port uint16) simnet.Endpoint {
	if simnet.AddrSpace(addr) == simnet.SpaceLoopback {
		if ep, ok := p.localhost[port]; ok {
			return ep
		}
		return simnet.Endpoint{Outcome: simnet.DialRefused}
	}
	if ep, ok := p.lan[lanKey{addr, port}]; ok {
		return ep
	}
	if p.lanHosts[addr] {
		return simnet.Endpoint{Outcome: simnet.DialRefused}
	}
	return simnet.Endpoint{Outcome: simnet.DialTimeout}
}

// DefaultProfile builds the measurement-VM profile the paper used for
// each OS: clean incognito machines with only stock OS services
// listening, on the vantage that OS was crawled from (Windows and Linux
// VMs on Georgia Tech's network, the Mac laptop on residential Comcast).
func DefaultProfile(os OS) *Profile {
	var p *Profile
	switch os {
	case Windows:
		p = NewProfile(os, "10", simnet.VantageCampus)
		// Remote Desktop is enabled on the Windows VMs (VM management);
		// it accepts TCP but speaks RDP, so WebSocket handshakes fail.
		p.ListenLocal(3389, simnet.Endpoint{Outcome: simnet.DialAccepted, Service: rawTCPService("ms-wbt-server")})
	case Linux:
		p = NewProfile(os, "Ubuntu 20.04", simnet.VantageCampus)
		// CUPS listens on 631 by default on desktop Ubuntu.
		p.ListenLocalService(631, httpStub("CUPS/2.3", 200))
	case MacOSX:
		p = NewProfile(os, "10.15.6", simnet.VantageResidential)
		p.ListenLocalService(631, httpStub("CUPS/2.3", 200))
	default:
		panic(fmt.Sprintf("hostenv: unknown OS %d", int(os)))
	}
	// Every vantage has a gateway answering HTTP on the LAN.
	gw := netip.MustParseAddr("192.168.1.1")
	p.BindLAN(gw, 80, simnet.Endpoint{Outcome: simnet.DialAccepted, Service: httpStub("router-admin", 401)})
	return p
}

// rawTCPService accepts connections but is not an HTTP or WebSocket
// server: any HTTP-level exchange yields an empty-response error, which
// is what Chrome reports when a non-HTTP listener answers.
func rawTCPService(name string) simnet.Service {
	return simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		return &simnet.Response{Status: 0, ContentType: "raw/" + name}
	})
}

// httpStub is a minimal HTTP responder with a fixed status.
func httpStub(server string, status int) simnet.Service {
	return simnet.ServiceFunc(func(req *simnet.Request) *simnet.Response {
		return &simnet.Response{Status: status, ContentType: "text/html", BodySize: 512, Header: map[string]string{"Server": server}}
	})
}
