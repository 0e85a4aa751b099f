package telemetry

import (
	"runtime"
	"runtime/debug"
)

// MetricBuildInfo is the standard build-identity gauge: constant 1,
// labeled with the binary's version and the Go toolchain that built
// it. Every binary registers it at startup so any scrape — and any
// load-harness report built from one — is attributable to a build.
const MetricBuildInfo = "knock_build_info"

// RegisterBuildInfo registers the knock_build_info gauge on r (nil
// uses the process-default registry) and returns the version label it
// chose. The gauge rides along on every Prometheus /metrics scrape.
func RegisterBuildInfo(r *Registry) string {
	if r == nil {
		r = Default()
	}
	version, goVersion := BuildVersion()
	r.Gauge(MetricBuildInfo, "version", version, "goversion", goVersion).Set(1)
	return version
}

// BuildVersion resolves the binary's version — the module version when
// built from a tagged module, the embedded VCS revision (short, with a
// +dirty marker) otherwise, "devel" as the last resort — plus the Go
// toolchain version.
func BuildVersion() (version, goVersion string) {
	version = "devel"
	goVersion = runtime.Version()
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return version, goVersion
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if modified == "true" {
			rev += "+dirty"
		}
		version = rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		version = v
	}
	return version, goVersion
}
