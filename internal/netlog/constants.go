package netlog

// Event types observed on the simulated Chrome network stack. The set
// mirrors the subset of Chrome's NetLog event catalogue that the Knock
// and Talk pipeline consumes: request lifecycle, DNS resolution, socket
// connection, TLS, HTTP transaction, WebSocket, and redirects.
const (
	// Request lifecycle.
	TypeRequestAlive       EventType = "REQUEST_ALIVE"
	TypeURLRequestStartJob EventType = "URL_REQUEST_START_JOB"
	TypeURLRequestRedirect EventType = "URL_REQUEST_REDIRECTED"
	TypeURLRequestError    EventType = "URL_REQUEST_ERROR"

	// DNS.
	TypeHostResolverJob EventType = "HOST_RESOLVER_IMPL_JOB"

	// Transport.
	TypeTCPConnect    EventType = "TCP_CONNECT"
	TypeSocketAlive   EventType = "SOCKET_ALIVE"
	TypeSSLConnect    EventType = "SSL_CONNECT"
	TypeSocketClosed  EventType = "SOCKET_CLOSED"
	TypeSocketError   EventType = "SOCKET_ERROR"
	TypeSocketInUse   EventType = "SOCKET_IN_USE"
	TypeSocketTimeout EventType = "SOCKET_TIMEOUT"

	// HTTP transaction.
	TypeHTTPTransactionSendRequest        EventType = "HTTP_TRANSACTION_SEND_REQUEST"
	TypeHTTPTransactionSendRequestHeaders EventType = "HTTP_TRANSACTION_SEND_REQUEST_HEADERS"
	TypeHTTPTransactionReadHeaders        EventType = "HTTP_TRANSACTION_READ_HEADERS"
	TypeHTTPTransactionReadBody           EventType = "HTTP_TRANSACTION_READ_BODY"

	// WebSocket.
	TypeWebSocketSendHandshakeRequest  EventType = "WEB_SOCKET_SEND_HANDSHAKE_REQUEST"
	TypeWebSocketReadHandshakeResponse EventType = "WEB_SOCKET_READ_RESPONSE_HEADERS"
	TypeWebSocketInvalidHandshake      EventType = "WEB_SOCKET_INVALID_RESPONSE"
	TypeWebSocketSendFrame             EventType = "WEB_SOCKET_SENT_FRAME"
	TypeWebSocketRecvFrame             EventType = "WEB_SOCKET_RECEIVED_FRAME"

	// Browser-internal activity (Safe Browsing pings, variations fetches,
	// extension update checks). Generated with SourceBrowser sources and
	// filtered out by the analysis layer.
	TypeBrowserBackgroundRequest EventType = "BROWSER_BACKGROUND_REQUEST"
)

// eventTypeCodes assigns stable integer codes for the JSON export, in the
// spirit of Chrome's generated logging constants. Codes are part of the
// on-disk format; do not renumber.
var eventTypeCodes = map[EventType]int{
	TypeRequestAlive:                      1,
	TypeURLRequestStartJob:                2,
	TypeURLRequestRedirect:                3,
	TypeURLRequestError:                   4,
	TypeHostResolverJob:                   10,
	TypeTCPConnect:                        20,
	TypeSocketAlive:                       21,
	TypeSSLConnect:                        22,
	TypeSocketClosed:                      23,
	TypeSocketError:                       24,
	TypeSocketInUse:                       25,
	TypeSocketTimeout:                     26,
	TypeHTTPTransactionSendRequest:        30,
	TypeHTTPTransactionSendRequestHeaders: 31,
	TypeHTTPTransactionReadHeaders:        32,
	TypeHTTPTransactionReadBody:           33,
	TypeWebSocketSendHandshakeRequest:     40,
	TypeWebSocketReadHandshakeResponse:    41,
	TypeWebSocketInvalidHandshake:         42,
	TypeWebSocketSendFrame:                43,
	TypeWebSocketRecvFrame:                44,
	TypeBrowserBackgroundRequest:          90,
}

// eventTypesByName maps each registered type's name to its constant, so
// a decoder can look up a name held in a byte slice without allocating.
var eventTypesByName = func() map[string]EventType {
	m := make(map[string]EventType, len(eventTypeCodes))
	for t := range eventTypeCodes {
		m[string(t)] = t
	}
	return m
}()

var eventTypeByCode = func() map[int]EventType {
	m := make(map[int]EventType, len(eventTypeCodes))
	for t, c := range eventTypeCodes {
		m[c] = t
	}
	return m
}()

var sourceTypeCodes = map[SourceType]int{
	SourceNone:          0,
	SourceURLRequest:    1,
	SourceSocket:        2,
	SourceHostResolver:  3,
	SourceWebSocket:     4,
	SourceHTTPStreamJob: 5,
	SourceBrowser:       6,
}

var sourceTypeByCode = func() map[int]SourceType {
	m := make(map[int]SourceType, len(sourceTypeCodes))
	for t, c := range sourceTypeCodes {
		m[c] = t
	}
	return m
}()

// EventTypeCode returns the stable integer code for an event type, and
// whether the type is registered.
func EventTypeCode(t EventType) (int, bool) {
	c, ok := eventTypeCodes[t]
	return c, ok
}

// RegisteredEventTypes returns all registered event types. The order is
// unspecified.
func RegisteredEventTypes() []EventType {
	out := make([]EventType, 0, len(eventTypeCodes))
	for t := range eventTypeCodes {
		out = append(out, t)
	}
	return out
}
