package simnet

import (
	"fmt"
	"net/netip"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// hostCases pins every host form the model must agree on: the
// canonical spellings websim emits, the forms Chrome canonicalizes
// before NetLog records them, and look-alikes that must stay public.
var hostCases = []struct {
	host, canonical string
	space           Space
}{
	{"localhost", "localhost", SpaceLoopback},
	{"app.localhost", "app.localhost", SpaceLoopback},
	{"LOCALHOST", "localhost", SpaceLoopback},
	{"localhost.", "localhost", SpaceLoopback},
	{"FOO.LOCALHOST.", "foo.localhost", SpaceLoopback},
	{"127.0.0.1", "127.0.0.1", SpaceLoopback},
	{"127.255.255.254", "127.255.255.254", SpaceLoopback},
	{"127.8.8.8", "127.8.8.8", SpaceLoopback},
	{"127.1", "127.0.0.1", SpaceLoopback},
	{"2130706433", "127.0.0.1", SpaceLoopback},
	{"0x7f.0.0.1", "127.0.0.1", SpaceLoopback},
	{"0X7F.0.0.1", "127.0.0.1", SpaceLoopback},
	{"017700000001", "127.0.0.1", SpaceLoopback},
	{"127.0.0.1.", "127.0.0.1", SpaceLoopback},
	{"0.0.0.0", "0.0.0.0", SpaceLoopback},
	{"::1", "::1", SpaceLoopback},
	{"[::1]", "::1", SpaceLoopback},
	{"[::]", "::", SpaceLoopback},
	{"[::ffff:127.0.0.1]", "::ffff:127.0.0.1", SpaceLoopback},
	{"10.0.0.200", "10.0.0.200", SpacePrivate},
	{"10.193.31.212", "10.193.31.212", SpacePrivate},
	{"172.16.205.110", "172.16.205.110", SpacePrivate},
	{"172.31.255.1", "172.31.255.1", SpacePrivate},
	{"192.168.64.160", "192.168.64.160", SpacePrivate},
	{"192.168.1.8", "192.168.1.8", SpacePrivate},
	{"0xc0a80108", "192.168.1.8", SpacePrivate},
	{"fd00::1", "fd00::1", SpacePrivate},
	{"FD00::1", "fd00::1", SpacePrivate},
	{"[::ffff:10.0.0.1]", "::ffff:10.0.0.1", SpacePrivate},
	{"169.254.1.1", "169.254.1.1", SpaceLinkLocal},
	{"169.254.4.4", "169.254.4.4", SpaceLinkLocal},
	{"fe80::1", "fe80::1", SpaceLinkLocal},
	{"ebay.com", "ebay.com", SpacePublic},
	{"EBAY.com.", "ebay.com", SpacePublic},
	{"localhost.com", "localhost.com", SpacePublic}, // suffix must be a label boundary
	{"172.32.0.1", "172.32.0.1", SpacePublic},       // just past 172.16/12
	{"192.169.0.1", "192.169.0.1", SpacePublic},
	{"11.0.0.1", "11.0.0.1", SpacePublic},
	{"8.8.8.8", "8.8.8.8", SpacePublic},
	{"203.0.113.1", "203.0.113.1", SpacePublic},
	{"0x100000000", "0x100000000", SpacePublic}, // past 2^32: not an address
	{"256.0.0.1", "256.0.0.1", SpacePublic},
	{"1.2.3.4.5", "1.2.3.4.5", SpacePublic},
	{"2001:db8::1", "2001:db8::1", SpacePublic},
	{"localhost..", "localhost..", SpacePublic},
	{"", "", SpacePublic},
}

func TestHostSpace(t *testing.T) {
	for _, c := range hostCases {
		canon := CanonicalHost(c.host)
		if canon != c.canonical {
			t.Errorf("CanonicalHost(%q) = %q, want %q", c.host, canon, c.canonical)
		}
		if got := HostSpace(canon); got != c.space {
			t.Errorf("HostSpace(%q) = %d, want %d", canon, got, c.space)
		}
		if a, err := netip.ParseAddr(strings.Trim(c.host, "[]")); err == nil && AddrSpace(a) != c.space {
			t.Errorf("AddrSpace(%s) = %d, want %d", a, AddrSpace(a), c.space)
		}
	}
	if AddrSpace(netip.Addr{}) != SpacePublic {
		t.Error("the zero Addr (a DNS lookup) must ride the public link")
	}
}

// Canonical hosts take the zero-allocation path: the detector and the
// browser run the model on every flow.
func TestHostModelAllocs(t *testing.T) {
	for _, h := range []string{"ebay.com", "127.0.0.1", "localhost", "192.168.1.8"} {
		if n := testing.AllocsPerRun(100, func() {
			if CanonicalHost(h) != h || HostSpace(h) == Space(99) {
				t.Fatal("canonical host changed")
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per canonicalize+classify, want 0", h, n)
		}
	}
}

func TestSplitURL(t *testing.T) {
	cases := []struct {
		raw  string
		want URLParts
	}{
		{"http://127.0.0.1/", URLParts{SchemeHTTP, "127.0.0.1", 80, "/"}},
		{"HTTPS://192.168.0.1/x", URLParts{SchemeHTTPS, "192.168.0.1", 443, "/x"}},
		{"wss://FOO.LOCALHOST.:5939", URLParts{SchemeWSS, "foo.localhost", 5939, "/"}},
		{"http://[::1]:8080/a?b=1", URLParts{SchemeHTTP, "::1", 8080, "/a?b=1"}},
		{"http://0x7f.1:0/", URLParts{SchemeHTTP, "127.0.0.1", 0, "/"}},
		{"ftp://files.example/f", URLParts{"ftp", "files.example", 80, "/f"}},
	}
	for _, c := range cases {
		if got, err := SplitURL(c.raw); err != nil || got != c.want {
			t.Errorf("SplitURL(%q) = %+v, %v; want %+v", c.raw, got, err, c.want)
		}
	}
	for _, bad := range []string{"http://localhost:99999/", "http://localhost:65536/", "/relative", "mailto:a@b", "http:///x", "not a url\x7f://"} {
		if got, err := SplitURL(bad); err == nil {
			t.Errorf("SplitURL(%q) = %+v, want an error", bad, got)
		}
	}
}

// headNonPublic is the detector's host rule before the host model: the
// raw host string, with brackets trimmed and no canonicalization.
func headNonPublic(h string) bool {
	if h == "localhost" || strings.HasSuffix(h, ".localhost") {
		return true
	}
	ip, err := netip.ParseAddr(strings.Trim(h, "[]"))
	return err == nil && (ip.IsLoopback() || ip.Is4() && ip.IsPrivate() ||
		ip.Is6() && (ip.IsPrivate() || ip.IsLinkLocalUnicast()))
}

func FuzzCanonicalHost(f *testing.F) {
	for _, c := range hostCases {
		f.Add(c.host)
	}
	f.Fuzz(func(t *testing.T, h string) {
		canon := CanonicalHost(h)
		if again := CanonicalHost(canon); again != canon {
			t.Fatalf("not idempotent: %q -> %q -> %q", h, canon, again)
		}
		if headNonPublic(h) && HostSpace(canon) == SpacePublic {
			t.Fatalf("%q was local before canonicalization, %q is public", h, canon)
		}
		for _, s := range []string{h, canon} {
			a, ok := AddrLiteral(s)
			b, err := netip.ParseAddr(s)
			if ok != (err == nil) || a != b {
				t.Fatalf("AddrLiteral(%q) = %v, %v; netip.ParseAddr %v, %v", s, a, ok, b, err)
			}
		}
	})
}

// splitURLReference is SplitURL before its fast path: net/url and
// CanonicalHost for every input. FuzzSplitURL holds SplitURL to it.
func splitURLReference(raw string) (URLParts, error) {
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

// plainURLs are the shapes websim and realnet emit: every one takes
// SplitURL's fast path.
var plainURLs = []string{
	"https://ebay.com/",
	"http://ebay.com/login",
	"https://cdn3.webstatic.example/assets/0a3f1.js",
	"https://h-ebay.online-metrix.example/fp/tags.js?org_id=1a2b",
	"wss://localhost:3389/",
	"ws://localhost:6463/?v=1",
	"https://localhost:14440/?code=x1f3a&dummy=x1f3a",
	"http://127.0.0.1/wp-content/themes/x.css",
	"http://127.0.0.1:49152/crashpad/ping",
	"http://10.10.34.36/",
	"http://192.168.1.8:8080/x1f3a.jpg",
	"https://update.googleapis.chrome.internal/service/update2",
	"http://127.0.0.1:41273/probe",
}

// The fast path allocates nothing: the browser splits every request
// URL and the detector every flow URL.
func TestSplitURLAllocs(t *testing.T) {
	for _, raw := range plainURLs {
		want, err := splitURLReference(raw)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if got, err := SplitURL(raw); err != nil || got != want {
				t.Fatalf("SplitURL(%q) = %+v, %v; want %+v", raw, got, err, want)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per split, want 0", raw, n)
		}
	}
}

func FuzzSplitURL(f *testing.F) {
	for _, c := range hostCases {
		f.Add("http://" + c.host + "/")
	}
	f.Add("wss://localhost:5939/a?b=c")
	f.Add("http://[fe80::1%25en0]:99999/")
	for _, raw := range plainURLs {
		f.Add(raw)
	}
	for _, raw := range []string{
		"http://localhost/a%20b", "http://localhost/%zz", "http://localhost/a?b=%zz",
		"http://localhost:8080/a#frag", "http://localhost/#", "http://user:pw@localhost:5939/",
		"HTTP://localhost/", "Https://EBAY.com/", "http://h:/", "http://localhost?x=1",
		"http://[fe80::1%25eth0]:8080/", "http://localhost/a?", "http://localhost/a??b",
		"http://localhost//x", "http://localhost/a b", "http://localhost/a!b", "http://h:080/",
		"http://h:65535/", "http://h:65536/", "http://h:00000000080/", "ws://a_b.example/",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		p, err := SplitURL(raw)
		ref, refErr := splitURLReference(raw)
		if (err == nil) != (refErr == nil) || p != ref {
			t.Fatalf("SplitURL(%q) = %+v, %v; net/url reference %+v, %v", raw, p, err, ref, refErr)
		}
		if err != nil {
			return
		}
		u, err := url.Parse(raw)
		if err != nil {
			t.Fatalf("SplitURL accepted %q, url.Parse did not: %v", raw, err)
		}
		if p.Host != CanonicalHost(u.Hostname()) || p.Host == "" {
			t.Fatalf("%q: host %q, want CanonicalHost(%q)", raw, p.Host, u.Hostname())
		}
		want := uint64(p.Scheme.DefaultPort())
		if u.Port() != "" {
			want, err = strconv.ParseUint(u.Port(), 10, 16)
		}
		if err != nil || uint64(p.Port) != want || p.Scheme == "" || p.Path == "" {
			t.Fatalf("%q split as %+v; url.Parse port %q", raw, p, u.Port())
		}
	})
}
