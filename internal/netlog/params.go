package netlog

import (
	"math"
	"math/bits"
	"slices"
	"strings"
)

// Params holds an event's parameters (URLs, error strings, status codes,
// byte counts). The keys the browser and the real-network transport emit
// are stored in fixed typed fields, so recording an event builds no map;
// any other key, or a known key carrying a value of another type (a
// nested object from a real Chrome upload, a status code of 200.5), is
// kept as a decoded JSON value on a side list so it survives a round
// trip. Build one with the With methods:
//
//	netlog.Params{}.WithURL(u).WithInitiator("navigation")
//
// and read it through Event.ParamString, ParamInt and ParamBool. The zero
// value has no parameters. The NetLog encoders and decoders convert it
// to and from the equivalent map[string]any, so its JSON is exactly
// encoding/json's rendering of that map.
type Params struct {
	str  [numStringKeys]string
	num  [numIntKeys]int
	flag bool // sop_exempt
	// has records which typed keys are present: an empty initiator and a
	// false sop_exempt are parameters the browser writes, so presence is
	// not inferable from zero values.
	has uint16
	// extra holds every other parameter, sorted by key. A typed key that
	// is present shadows an entry of the same name, so setting one never
	// has to edit the list.
	extra []extraParam
}

type extraParam struct {
	key string
	val any
}

// paramKey indexes the typed parameters: string-valued keys first, then
// the int-valued ones, then the one bool.
type paramKey uint8

const (
	keyAddress paramKey = iota
	keyHost
	keyInitiator
	keyLocation
	keyMethod
	keyNetError
	keyOp
	keyPath
	keyURL
	keyUserAgent
	keyStatusCode
	keyBytes
	keySOPExempt
	numParamKeys

	numStringKeys = keyStatusCode
	numIntKeys    = keySOPExempt - keyStatusCode
)

var paramNames = [numParamKeys]string{
	keyAddress:    "address",
	keyHost:       "host",
	keyInitiator:  "initiator",
	keyLocation:   "location",
	keyMethod:     "method",
	keyNetError:   "net_error",
	keyOp:         "op",
	keyPath:       "path",
	keyURL:        "url",
	keyUserAgent:  "user_agent",
	keyStatusCode: "status_code",
	keyBytes:      "bytes",
	keySOPExempt:  "sop_exempt",
}

// paramKeysByName inverts paramNames, and paramRanks gives each typed
// key's place among the names in sorted order.
var paramKeysByName, paramRanks = func() (map[string]paramKey, [numParamKeys]int) {
	m := make(map[string]paramKey, numParamKeys)
	var ranks [numParamKeys]int
	for k, n := range paramNames {
		m[n] = paramKey(k)
		for _, other := range paramNames {
			if other < n {
				ranks[k]++
			}
		}
	}
	return m, ranks
}()

func (p *Params) present(k paramKey) bool { return p.has&(1<<k) != 0 }

// setString, setInt and setBool store a typed key's value and mark it
// present. They are small enough to inline, so a chain of With calls
// builds the value in place.
func (p *Params) setString(k paramKey, v string) { p.str[k] = v; p.has |= 1 << k }
func (p *Params) setInt(k paramKey, v int)       { p.num[k-keyStatusCode] = v; p.has |= 1 << k }
func (p *Params) setBool(v bool)                 { p.flag = v; p.has |= 1 << keySOPExempt }

// WithURL sets "url".
func (p Params) WithURL(v string) Params { p.setString(keyURL, v); return p }

// WithInitiator sets "initiator".
func (p Params) WithInitiator(v string) Params { p.setString(keyInitiator, v); return p }

// WithMethod sets "method".
func (p Params) WithMethod(v string) Params { p.setString(keyMethod, v); return p }

// WithNetError sets "net_error".
func (p Params) WithNetError(v string) Params { p.setString(keyNetError, v); return p }

// WithLocation sets "location".
func (p Params) WithLocation(v string) Params { p.setString(keyLocation, v); return p }

// WithHost sets "host".
func (p Params) WithHost(v string) Params { p.setString(keyHost, v); return p }

// WithAddress sets "address".
func (p Params) WithAddress(v string) Params { p.setString(keyAddress, v); return p }

// WithPath sets "path".
func (p Params) WithPath(v string) Params { p.setString(keyPath, v); return p }

// WithUserAgent sets "user_agent".
func (p Params) WithUserAgent(v string) Params { p.setString(keyUserAgent, v); return p }

// WithOp sets "op".
func (p Params) WithOp(v string) Params { p.setString(keyOp, v); return p }

// WithStatusCode sets "status_code".
func (p Params) WithStatusCode(v int) Params { p.setInt(keyStatusCode, v); return p }

// WithBytes sets "bytes".
func (p Params) WithBytes(v int) Params { p.setInt(keyBytes, v); return p }

// WithSOPExempt sets "sop_exempt".
func (p Params) WithSOPExempt(v bool) Params { p.setBool(v); return p }

// IsZero reports whether p holds no parameters; such events encode with
// no "params" member.
func (p *Params) IsZero() bool { return p.has == 0 && len(p.extra) == 0 }

func (p *Params) findExtra(key string) (int, bool) {
	return slices.BinarySearchFunc(p.extra, key, func(e extraParam, k string) int {
		return strings.Compare(e.key, k)
	})
}

func (p *Params) extraValue(key string) any {
	if i, found := p.findExtra(key); found {
		return p.extra[i].val
	}
	return nil
}

// ParamString returns the string value of the named parameter, or "" if it
// is absent or not a string.
func (e *Event) ParamString(key string) string {
	p := &e.Params
	if k, ok := paramKeysByName[key]; ok && p.present(k) {
		if k < numStringKeys {
			return p.str[k]
		}
		return ""
	}
	s, _ := p.extraValue(key).(string)
	return s
}

// ParamInt returns the integer value of the named parameter. Decoded JSON
// numbers that are not integral stay float64 and are truncated, so int,
// int64 and float64 values are all accepted.
func (e *Event) ParamInt(key string) (int, bool) {
	p := &e.Params
	if k, ok := paramKeysByName[key]; ok && p.present(k) {
		if k >= keyStatusCode && k < keySOPExempt {
			return p.num[k-keyStatusCode], true
		}
		return 0, false
	}
	return p.extraInt(key)
}

// intParam is ParamInt for an int-valued typed key.
func (p *Params) intParam(k paramKey) (int, bool) {
	if p.present(k) {
		return p.num[k-keyStatusCode], true
	}
	if len(p.extra) == 0 {
		return 0, false
	}
	return p.extraInt(paramNames[k])
}

func (p *Params) extraInt(key string) (int, bool) {
	switch v := p.extraValue(key).(type) {
	case int:
		return v, true
	case int64:
		return int(v), true
	case float64:
		return int(v), true
	}
	return 0, false
}

// ParamBool returns the boolean value of the named parameter, and whether
// it is present as a boolean.
func (e *Event) ParamBool(key string) (bool, bool) {
	p := &e.Params
	if k, ok := paramKeysByName[key]; ok && p.present(k) {
		return p.flag && k == keySOPExempt, k == keySOPExempt
	}
	b, ok := p.extraValue(key).(bool)
	return b, ok
}

// asMap returns the equivalent map[string]any, or nil when p holds no
// parameters; the JSON encoders write it. A typed key that is present wins
// over a side-list entry of the same name.
func (p *Params) asMap() map[string]any {
	if p.IsZero() {
		return nil
	}
	m := make(map[string]any, bits.OnesCount16(p.has)+len(p.extra))
	for _, e := range p.extra {
		m[e.key] = e.val
	}
	for k := range numParamKeys {
		if !p.present(k) {
			continue
		}
		switch {
		case k < numStringKeys:
			m[paramNames[k]] = p.str[k]
		case k < keySOPExempt:
			m[paramNames[k]] = p.num[k-keyStatusCode]
		default:
			m[paramNames[k]] = p.flag
		}
	}
	return m
}

// paramsFromMap is the inverse of asMap; the JSON decoders call it on the
// map encoding/json decodes. It stores each entry of m typed when the value
// has its key's type, and on the side list otherwise.
func paramsFromMap(m map[string]any) Params {
	var p Params
	for key, v := range m {
		if !p.setTyped(key, v) {
			p.extra = append(p.extra, extraParam{key, v})
		}
	}
	slices.SortFunc(p.extra, func(a, b extraParam) int { return strings.Compare(a.key, b.key) })
	return p
}

// setTyped stores v in typed key key if it has that key's type, and
// reports whether it did. A decoded float64 counts as an int when the int
// encodes to the same text: integral, not negative zero, and within
// ±2^53, beyond which a float64 is written rounded.
func (p *Params) setTyped(key string, v any) bool {
	k, ok := paramKeysByName[key]
	if !ok {
		return false
	}
	isInt := k >= keyStatusCode && k < keySOPExempt
	switch v := v.(type) {
	case string:
		if k < numStringKeys {
			p.setString(k, v)
			return true
		}
	case int:
		if isInt {
			p.setInt(k, v)
			return true
		}
	case float64:
		const lim = 1 << 53
		if isInt && v >= -lim && v <= lim && v == math.Trunc(v) && !(v == 0 && math.Signbit(v)) {
			p.setInt(k, int(v))
			return true
		}
	case bool:
		if k == keySOPExempt {
			p.setBool(v)
			return true
		}
	}
	return false
}
