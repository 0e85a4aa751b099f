// Package realnet bridges the pipeline to the real network stack: an
// instrumented http.RoundTripper and a TCP port prober that emit the
// same NetLog events the simulated browser produces, so the detector
// and classifier run unchanged against genuine loopback and LAN
// traffic. This is what a deployment of the paper's methodology on live
// machines looks like, and it powers the livedetector example.
package realnet

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
)

// Transport is an http.RoundTripper that records every request and its
// outcome into a NetLog recorder. Timestamps are offsets from the first
// recorded event, matching the per-visit clock of the simulated crawls.
type Transport struct {
	// Base performs the actual exchange; nil means
	// http.DefaultTransport.
	Base http.RoundTripper
	// Rec receives the telemetry.
	Rec *netlog.Recorder

	once  sync.Once
	start time.Time
}

// NewTransport returns a transport recording into rec.
func NewTransport(rec *netlog.Recorder) *Transport {
	return &Transport{Rec: rec}
}

func (t *Transport) since() time.Duration {
	t.once.Do(func() { t.start = time.Now() })
	return time.Since(t.start)
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	src := t.Rec.NewSource(netlog.SourceURLRequest)
	t.Rec.Begin(t.since(), netlog.TypeRequestAlive, src, netlog.Params{}.
		WithURL(req.URL.String()).
		WithMethod(req.Method).
		WithInitiator("http-client"))
	resp, err := base.RoundTrip(req)
	if err != nil {
		t.Rec.Point(t.since(), netlog.TypeURLRequestError, src,
			netlog.Params{}.WithURL(req.URL.String()).WithNetError(string(classifyErr(err))))
		t.Rec.End(t.since(), netlog.TypeRequestAlive, src, netlog.Params{})
		return nil, err
	}
	if loc := resp.Header.Get("Location"); loc != "" && resp.StatusCode >= 300 && resp.StatusCode < 400 {
		t.Rec.Point(t.since(), netlog.TypeURLRequestRedirect, src,
			netlog.Params{}.WithURL(req.URL.String()).WithLocation(loc))
	}
	t.Rec.Point(t.since(), netlog.TypeHTTPTransactionReadHeaders, src, netlog.Params{}.WithStatusCode(resp.StatusCode))
	t.Rec.End(t.since(), netlog.TypeRequestAlive, src, netlog.Params{}.WithStatusCode(resp.StatusCode))
	return resp, nil
}

// classifyErr maps a Go transport error onto Chrome's error taxonomy.
func classifyErr(err error) simnet.NetError {
	switch {
	case errors.Is(err, syscall.ECONNREFUSED):
		return simnet.ErrConnectionRefused
	case errors.Is(err, syscall.ECONNRESET):
		return simnet.ErrConnectionReset
	case errors.Is(err, syscall.ETIMEDOUT):
		return simnet.ErrConnectionTimedOut
	}
	var dnsErr *net.DNSError
	if errors.As(err, &dnsErr) {
		return simnet.ErrNameNotResolved
	}
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return simnet.ErrConnectionTimedOut
	}
	return simnet.ErrAborted
}

// ProbeResult is the outcome of one TCP port probe.
type ProbeResult struct {
	Host    string
	Port    uint16
	Open    bool
	Err     simnet.NetError
	Elapsed time.Duration
}

// ProbePort attempts a TCP connection the way a web-based port scan
// does, recording the attempt. The timing side channel the paper
// hypothesizes for BIG-IP's bot defense is directly visible in Elapsed:
// refused ports answer immediately, filtered ports hit the timeout.
func ProbePort(rec *netlog.Recorder, at time.Duration, host string, port uint16, timeout time.Duration) ProbeResult {
	src := rec.NewSource(netlog.SourceSocket)
	addr := net.JoinHostPort(host, fmt.Sprint(port))
	rec.Begin(at, netlog.TypeTCPConnect, src, netlog.Params{}.WithAddress(addr))
	start := time.Now()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	elapsed := time.Since(start)
	res := ProbeResult{Host: host, Port: port, Elapsed: elapsed}
	if err != nil {
		res.Err = classifyErr(err)
		rec.Point(at+elapsed, netlog.TypeSocketError, src, netlog.Params{}.WithNetError(string(res.Err)))
		return res
	}
	conn.Close()
	res.Open = true
	rec.End(at+elapsed, netlog.TypeTCPConnect, src, netlog.Params{})
	return res
}
