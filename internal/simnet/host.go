package simnet

import (
	"cmp"
	"fmt"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
)

// URLParts is a request URL split into the components the browser dials
// and the detector records.
type URLParts struct {
	Scheme Scheme // lowercased, as net/url leaves it
	Host   string // CanonicalHost of the URL's host
	Port   uint16 // the explicit port, or the scheme's default
	Path   string // the request URI, "/" if empty
}

// SplitURL splits an absolute URL. It rejects URLs with no scheme or no
// host and ports above 65535; it accepts every scheme. The shapes
// websim and realnet emit split without allocating (splitPlain); every
// other URL goes through net/url.
func SplitURL(raw string) (URLParts, error) {
	if p, ok := splitPlain(raw); ok {
		return p, nil
	}
	u, err := url.Parse(raw)
	if err != nil {
		return URLParts{}, err
	}
	p := URLParts{Scheme: Scheme(u.Scheme), Host: CanonicalHost(u.Hostname()), Path: u.RequestURI()}
	if p.Scheme == "" || p.Host == "" {
		return URLParts{}, fmt.Errorf("simnet: no scheme or host in %q", raw)
	}
	p.Port = p.Scheme.DefaultPort()
	if s := u.Port(); s != "" {
		n, err := strconv.ParseUint(s, 10, 16)
		if err != nil {
			return URLParts{}, fmt.Errorf("simnet: bad port %q in %q", s, raw)
		}
		p.Port = uint16(n)
	}
	if p.Path == "" {
		p.Path = "/"
	}
	return p, nil
}

// Bytes splitPlain passes through: a lowercase scheme, a host name or
// dotted decimal, and the path bytes net/url never escapes.
const (
	lowerChars = "abcdefghijklmnopqrstuvwxyz"
	hostChars  = lowerChars + "0123456789-._"
	pathChars  = hostChars + "ABCDEFGHIJKLMNOPQRSTUVWXYZ~$&+,/:;=@"
)

// splitPlain splits, without allocating, a URL whose every part is
// already what SplitURL returns: a lowercase scheme, a canonical host,
// an optional decimal port, and a path of pathChars with a query of
// printable ASCII but '#', which RequestURI returns unchanged. Path is
// then a substring of raw. It reports false for every other URL.
func splitPlain(raw string) (URLParts, bool) {
	scheme, rest, _ := strings.Cut(raw, "://")
	n := strings.IndexByte(rest, '/')
	if n < 0 {
		n = len(rest)
	}
	host, port, hasPort := strings.Cut(rest[:n], ":")
	p := URLParts{Scheme: Scheme(scheme), Host: host, Port: Scheme(scheme).DefaultPort(), Path: cmp.Or(rest[n:], "/")}
	if hasPort {
		v, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			return URLParts{}, false
		}
		p.Port = uint16(v)
	}
	path, query, _ := strings.Cut(p.Path, "?")
	return p, scheme != "" && strings.Trim(scheme, lowerChars) == "" && host != "" &&
		strings.Trim(host, hostChars) == "" && CanonicalHost(host) == host && strings.Trim(path, pathChars) == "" &&
		!strings.ContainsFunc(query, func(c rune) bool { return c <= ' ' || c >= 0x7f || c == '#' })
}

// CanonicalHost returns a URL host in canonical form: ASCII lowercased,
// brackets and one trailing dot stripped, the WHATWG IPv4 number forms
// (127.1, 2130706433, 0x7f.0.0.1, 017700000001) written as dotted
// decimal and IPv6 literals as netip writes them. A host that is already
// canonical comes back as the same string, without allocating.
func CanonicalHost(h string) string {
	s := strings.Trim(h, "[]")
	// The dot ends names and IPv4 forms only; stripping it must leave a
	// fixed point, or a second pass would change the host again.
	if n := len(s); n > 1 && s[n-1] == '.' && strings.IndexByte(s, ':') < 0 && !strings.ContainsRune(".[]", rune(s[n-2])) {
		s = s[:n-1]
	}
	s = lowerASCII(s)
	if a, ok := parseIP(s); ok {
		var buf [64]byte
		if b := a.AppendTo(buf[:0]); string(b) != h {
			return string(b)
		}
		return h
	}
	return s
}

// lowerASCII lowercases ASCII letters, returning s itself if it has none.
func lowerASCII(s string) string {
	var b []byte
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			if b == nil {
				b = []byte(s)
			}
			b[i] = c + 'a' - 'A'
		}
	}
	if b == nil {
		return s
	}
	return string(b)
}

// parseIP parses an IPv6 literal or an IPv4 address in any WHATWG form:
// up to four dot-separated numbers, every one but the last below 256,
// the last filling the remaining bytes.
func parseIP(s string) (netip.Addr, bool) {
	if strings.IndexByte(s, ':') >= 0 {
		a, err := netip.ParseAddr(s)
		return a, err == nil
	}
	var v uint32
	parts := strings.Count(s, ".") + 1
	for i := 0; i < parts && parts <= 4; i++ {
		label, rest, _ := strings.Cut(s, ".")
		bits := 8
		if i == parts-1 {
			bits = 8 * (5 - parts)
		}
		n, ok := ipv4Number(label)
		if !ok || n >= 1<<bits {
			return netip.Addr{}, false
		}
		v, s = v<<bits|uint32(n), rest
	}
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}), parts <= 4
}

// AddrLiteral parses a host as netip.ParseAddr does, for hosts that
// are IP literals. Names, which parseIP rejects without allocating,
// never reach netip, whose parse error allocates; parseIP accepts every
// string netip.ParseAddr does, so the answers are netip's.
func AddrLiteral(h string) (netip.Addr, bool) {
	if _, ok := parseIP(h); !ok {
		return netip.Addr{}, false
	}
	a, err := netip.ParseAddr(h)
	return a, err == nil
}

// ipv4Number parses one WHATWG IPv4 number: decimal, 0x-prefixed hex or
// 0-prefixed octal, below 2^32.
func ipv4Number(s string) (n uint64, ok bool) {
	base := uint64(10)
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		s, base = s[2:], 16
	case len(s) > 1 && s[0] == '0':
		s, base = s[1:], 8
	case s == "":
		return 0, false
	}
	for i := 0; i < len(s); i++ {
		d := uint64(strings.IndexByte("0123456789abcdef", s[i]|0x20))
		if s[i] < '0' || d >= base || n >= 1<<32 {
			return 0, false
		}
		n = n*base + d
	}
	return n, n < 1<<32
}

// Space is the address space of a destination, after WICG Private
// Network Access. The order matches the Scope bits.
type Space uint8

// Address spaces.
const (
	SpaceLoopback  Space = iota // 127/8, ::1, 0.0.0.0, ::, localhost
	SpacePrivate                // RFC1918, fc00::/7
	SpaceLinkLocal              // 169.254/16, fe80::/10
	SpacePublic                 // everything else, and the zero Addr
)

// AddrSpace returns the address space of an address, unmapping
// IPv4-in-IPv6 first. The unspecified addresses are loopback: Chrome on
// Linux and macOS reached local services through them before PNA.
func AddrSpace(a netip.Addr) Space {
	a = a.Unmap()
	switch {
	case a.IsLoopback() || a.IsUnspecified():
		return SpaceLoopback
	case a.IsPrivate():
		return SpacePrivate
	case a.IsLinkLocalUnicast():
		return SpaceLinkLocal
	default:
		return SpacePublic
	}
}

// HostSpace returns the address space of a canonical host:
// loopback for localhost and every *.localhost name, AddrSpace for IP
// literals, public for any other name.
func HostSpace(h string) Space {
	if h == "localhost" || strings.HasSuffix(h, ".localhost") {
		return SpaceLoopback
	}
	if a, ok := parseIP(h); ok {
		return AddrSpace(a)
	}
	return SpacePublic
}
