package browser

import (
	"net/netip"
	"time"

	"github.com/knockandtalk/knockandtalk/internal/netlog"
	"github.com/knockandtalk/knockandtalk/internal/simnet"
)

// The fetch pipeline mirrors Chrome's request lifecycle — resolve,
// connect, TLS, transaction (or WebSocket handshake), redirect — in
// continuation-passing style over the visit scheduler, so that virtual
// time advances through each stage and every event lands on the NetLog
// with a realistic timestamp.

// fetch runs one request and calls done exactly once with the outcome.
// A redirect chain reuses the same URL_REQUEST source, as Chrome does.
func (v *visit) fetch(req request, done func(fetchOutcome)) {
	fail := func(src netlog.Source, u string, err simnet.NetError) {
		v.rec.Point(v.sched.Now(), netlog.TypeURLRequestError, src,
			netlog.Params{}.WithURL(u).WithNetError(string(err)))
		v.rec.End(v.sched.Now(), netlog.TypeRequestAlive, src, netlog.Params{})
		done(fetchOutcome{err: err, finalURL: u})
	}

	target, err := simnet.SplitURL(req.rawURL)
	switch target.Scheme {
	case simnet.SchemeHTTP, simnet.SchemeHTTPS, simnet.SchemeWS, simnet.SchemeWSS:
	default:
		err = simnet.ErrAborted // the browser fetches no other scheme
	}
	if err != nil {
		src := req.source
		if src == (netlog.Source{}) {
			src = v.rec.NewSource(netlog.SourceURLRequest)
			v.rec.Begin(v.sched.Now(), netlog.TypeRequestAlive, src,
				netlog.Params{}.WithURL(req.rawURL).WithInitiator(req.initiator))
		}
		fail(src, req.rawURL, simnet.ErrAborted)
		return
	}

	src := req.source
	if src == (netlog.Source{}) {
		srcType := netlog.SourceURLRequest
		if target.Scheme.WebSocket() {
			srcType = netlog.SourceWebSocket
		}
		src = v.rec.NewSource(srcType)
		v.rec.Begin(v.sched.Now(), netlog.TypeRequestAlive, src, netlog.Params{}.
			WithURL(req.rawURL).
			WithInitiator(req.initiator).
			WithMethod("GET").
			WithSOPExempt(target.Scheme.WebSocket()))
	}

	if PortRestricted(target.Port) {
		// Chrome rejects unsafe ports before touching the network; the
		// attempt is still visible in the log (and to the detector).
		fail(src, req.rawURL, simnet.ErrUnsafePort)
		return
	}

	v.resolve(target, func(addr netip.Addr, resErr simnet.NetError) {
		if resErr.IsFailure() {
			fail(src, req.rawURL, resErr)
			return
		}
		path := v.path(addr, target.Port)
		v.connect(src, target, addr, path, func(ep simnet.Endpoint, connErr simnet.NetError) {
			if connErr.IsFailure() {
				fail(src, req.rawURL, connErr)
				return
			}
			v.transact(src, req, target, addr, ep, path, func(resp *simnet.Response, txErr simnet.NetError) {
				if txErr.IsFailure() {
					fail(src, req.rawURL, txErr)
					return
				}
				if resp.Status >= 300 && resp.Status < 400 && resp.Location != "" {
					if req.redirects >= v.b.Opts.MaxRedirects {
						fail(src, req.rawURL, simnet.ErrTooManyRedirects)
						return
					}
					v.rec.Point(v.sched.Now(), netlog.TypeURLRequestRedirect, src,
						netlog.Params{}.WithURL(req.rawURL).WithLocation(resp.Location))
					v.fetch(request{
						rawURL:     resp.Location,
						initiator:  req.initiator,
						navigation: req.navigation,
						redirects:  req.redirects + 1,
						source:     src,
					}, done)
					return
				}
				v.rec.End(v.sched.Now(), netlog.TypeRequestAlive, src,
					netlog.Params{}.WithStatusCode(resp.Status))
				done(fetchOutcome{
					status:   resp.Status,
					finalURL: req.rawURL,
					document: resp.Document,
				})
			})
		})
	})
}

// path applies the active network conditions to one flow. DNS lookups
// pass the zero address (the destination is not known yet).
func (v *visit) path(addr netip.Addr, port uint16) simnet.Path {
	return v.b.cond.Path(v.b.Net.Seed, simnet.Flow{
		Vantage: v.b.flowVantage, Dst: addr, Port: port,
	})
}

// resolve performs name resolution. IP literals and loopback-space names
// (localhost and *.localhost) resolve synchronously, as in Chrome; every
// other name goes through the stub resolver with the active conditions'
// lookup latency. Under DNS impairment a lookup can die at the resolver
// (ERR_DNS_TIMED_OUT), a failure mode distinct from NXDOMAIN.
func (v *visit) resolve(target simnet.URLParts, done func(netip.Addr, simnet.NetError)) {
	if ip, ok := simnet.AddrLiteral(target.Host); ok {
		done(ip, simnet.OK)
		return
	}
	if simnet.HostSpace(target.Host) == simnet.SpaceLoopback {
		done(netip.MustParseAddr("127.0.0.1"), simnet.OK)
		return
	}
	dns := v.b.cond.Path(v.b.Net.Seed, simnet.Flow{Vantage: v.b.flowVantage, Host: target.Host})
	dnsSrc := v.rec.NewSource(netlog.SourceHostResolver)
	v.rec.Begin(v.sched.Now(), netlog.TypeHostResolverJob, dnsSrc, netlog.Params{}.WithHost(target.Host))
	if dns.DNSTimeout {
		v.sched.After(dns.DNSTimeoutAfter, func() {
			v.rec.End(v.sched.Now(), netlog.TypeHostResolverJob, dnsSrc,
				netlog.Params{}.WithHost(target.Host).WithNetError(string(simnet.ErrDNSTimedOut)))
			done(netip.Addr{}, simnet.ErrDNSTimedOut)
		})
		return
	}
	addrs, nerr := v.b.Net.Resolver.Resolve(target.Host)
	delay := dns.DNSResolve
	if nerr.IsFailure() {
		delay = dns.DNSFailure
	}
	v.sched.After(delay, func() {
		params := netlog.Params{}.WithHost(target.Host)
		if nerr.IsFailure() {
			v.rec.End(v.sched.Now(), netlog.TypeHostResolverJob, dnsSrc, params.WithNetError(string(nerr)))
			done(netip.Addr{}, nerr)
			return
		}
		v.rec.End(v.sched.Now(), netlog.TypeHostResolverJob, dnsSrc, params.WithAddress(addrs[0].String()))
		done(addrs[0], simnet.OK)
	})
}

// locate routes the destination: every non-public address space is
// answered by the visiting machine's own environment, everything else by
// the public network.
func (v *visit) locate(addr netip.Addr, port uint16) simnet.Endpoint {
	if simnet.AddrSpace(addr) != simnet.SpacePublic {
		return v.b.Profile.Locate(addr, port)
	}
	return v.b.Net.Locate(addr, port)
}

// connect establishes the transport (TCP, then TLS for secure schemes),
// reusing a kept-alive connection to the same origin when one exists —
// WebSockets always open a fresh socket, as Chrome does. A connection
// the link drops (path.Drop) times out like an unroutable destination,
// even on a listening port.
func (v *visit) connect(src netlog.Source, target simnet.URLParts, addr netip.Addr, path simnet.Path, done func(simnet.Endpoint, simnet.NetError)) {
	ep := v.locate(addr, target.Port)
	outcome := ep.Outcome
	if path.Drop {
		outcome = simnet.DialTimeout
	}
	key := poolKey{target.Scheme.Secure(), netip.AddrPortFrom(addr, target.Port)}
	pooled := !target.Scheme.WebSocket() && outcome == simnet.DialAccepted
	if sock, ok := v.b.pool[key]; ok && pooled {
		v.rec.Point(v.sched.Now(), netlog.TypeSocketInUse, sock, netlog.Params{}.WithAddress(key.addr.String()))
		done(ep, simnet.OK)
		return
	}
	rtt := path.RTT
	sockSrc := v.rec.NewSource(netlog.SourceSocket)
	v.rec.Begin(v.sched.Now(), netlog.TypeTCPConnect, sockSrc, netlog.Params{}.WithAddress(key.addr.String()))
	var wait time.Duration
	switch outcome {
	case simnet.DialAccepted, simnet.DialRefused:
		wait = rtt // SYN → SYN-ACK or RST
	case simnet.DialReset:
		wait = rtt + rtt/2
	default: // timeout
		wait = path.ConnectTimeout
	}
	v.sched.After(wait, func() {
		if nerr := outcome.NetError(); nerr.IsFailure() {
			v.rec.Point(v.sched.Now(), netlog.TypeSocketError, sockSrc, netlog.Params{}.WithNetError(string(nerr)))
			done(ep, nerr)
			return
		}
		v.rec.End(v.sched.Now(), netlog.TypeTCPConnect, sockSrc, netlog.Params{})
		if !target.Scheme.Secure() {
			if pooled {
				v.b.pool[key] = sockSrc
			}
			done(ep, simnet.OK)
			return
		}
		v.rec.Begin(v.sched.Now(), netlog.TypeSSLConnect, sockSrc, netlog.Params{})
		var tlsErr simnet.NetError
		switch {
		case ep.TLS == nil || ep.TLS.Broken:
			tlsErr = simnet.ErrSSLProtocolError
		case !ep.TLS.ValidFor(target.Host) && simnet.AddrSpace(addr) == simnet.SpacePublic:
			// Chrome still flags bad local certs, but the localhost
			// services the study saw use self-signed certs users have
			// trusted; the simulation accepts them so that the probe
			// traffic (the observable we measure) proceeds as observed.
			tlsErr = simnet.ErrCertCommonNameBad
		}
		v.sched.After(2*rtt, func() {
			if tlsErr.IsFailure() {
				v.rec.Point(v.sched.Now(), netlog.TypeSocketError, sockSrc, netlog.Params{}.WithNetError(string(tlsErr)))
				done(ep, tlsErr)
				return
			}
			v.rec.End(v.sched.Now(), netlog.TypeSSLConnect, sockSrc, netlog.Params{})
			if pooled {
				v.b.pool[key] = sockSrc
			}
			done(ep, simnet.OK)
		})
	})
}

// transact performs the HTTP exchange or WebSocket handshake on an
// established connection.
func (v *visit) transact(src netlog.Source, req request, target simnet.URLParts, addr netip.Addr, ep simnet.Endpoint, path simnet.Path, done func(*simnet.Response, simnet.NetError)) {
	rtt := path.RTT
	sreq := &simnet.Request{
		Method:    "GET",
		Scheme:    target.Scheme,
		Host:      target.Host,
		Addr:      addr,
		Port:      target.Port,
		Path:      target.Path,
		UserAgent: v.b.Profile.OS.UserAgent(),
		Origin:    v.res.URL,
	}
	if req.navigation && v.b.Opts.ParseHTML {
		sreq.Header = map[string]string{rawHTMLHeader: "1"}
	}
	ws := target.Scheme.WebSocket()
	if ws {
		v.rec.Begin(v.sched.Now(), netlog.TypeWebSocketSendHandshakeRequest, src, netlog.Params{}.WithURL(req.rawURL))
	} else {
		v.rec.Begin(v.sched.Now(), netlog.TypeHTTPTransactionSendRequest, src, netlog.Params{})
		v.rec.Point(v.sched.Now(), netlog.TypeHTTPTransactionSendRequestHeaders, src,
			netlog.Params{}.WithMethod("GET").WithPath(target.Path).WithUserAgent(sreq.UserAgent))
	}
	resp := serve(ep.Service, sreq)
	wait := rtt
	if resp != nil {
		wait += resp.ServeDelay
	}
	v.sched.After(wait, func() {
		if resp == nil || resp.Status == 0 {
			if ws {
				v.rec.Point(v.sched.Now(), netlog.TypeWebSocketInvalidHandshake, src, netlog.Params{})
				done(nil, simnet.ErrInvalidHTTPResponse)
				return
			}
			done(nil, simnet.ErrEmptyResponse)
			return
		}
		if resp.ResetAfterHeaders {
			done(nil, simnet.ErrConnectionReset)
			return
		}
		if ws {
			// A WebSocket upgrade succeeds only if the service accepted
			// it; an HTTP service answering 200 is an invalid handshake.
			if resp.WebSocketAccept || resp.Status == 101 {
				v.rec.Point(v.sched.Now(), netlog.TypeWebSocketReadHandshakeResponse, src,
					netlog.Params{}.WithStatusCode(101))
				v.rec.Point(v.sched.Now(), netlog.TypeWebSocketSendFrame, src, netlog.Params{}.WithOp("text"))
				done(fetchOK(101), simnet.OK)
				return
			}
			v.rec.Point(v.sched.Now(), netlog.TypeWebSocketInvalidHandshake, src,
				netlog.Params{}.WithStatusCode(resp.Status))
			done(fetchOK(resp.Status), simnet.OK)
			return
		}
		v.rec.Point(v.sched.Now(), netlog.TypeHTTPTransactionReadHeaders, src,
			netlog.Params{}.WithStatusCode(resp.Status))
		if resp.Status >= 300 && resp.Status < 400 && resp.Location != "" {
			done(resp, simnet.OK)
			return
		}
		// Body read time scales with size, plus any serialization delay
		// the active conditions' bandwidth cap imposes.
		bodyWait := path.TransferDelay(resp.BodySize)
		v.sched.After(bodyWait, func() {
			v.rec.Point(v.sched.Now(), netlog.TypeHTTPTransactionReadBody, src,
				netlog.Params{}.WithBytes(resp.BodySize))
			done(resp, simnet.OK)
		})
	})
}

// rawHTMLHeader mirrors websim.RawHTMLHeader without importing websim
// (the browser must not depend on the content layer).
const rawHTMLHeader = "X-Knockandtalk-Raw-HTML"

// fetchOK wraps a bare status into a response for WebSocket outcomes.
func fetchOK(status int) *simnet.Response { return &simnet.Response{Status: status} }

// serve invokes a service defensively: a panicking endpoint behaves
// like a crashed server (connection torn down), not a crashed crawl —
// one misbehaving site must never take down the measurement.
func serve(svc simnet.Service, req *simnet.Request) (resp *simnet.Response) {
	if svc == nil {
		return nil
	}
	defer func() {
		if recover() != nil {
			resp = nil
		}
	}()
	return svc.Serve(req)
}
