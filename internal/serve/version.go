package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
)

// VersionInfo identifies the running build: the Go toolchain, the main
// module, and — when the binary was built from a checkout — the VCS
// revision stamped by the toolchain. All fields come from the binary's
// embedded build info, never from the environment, so the answer is a
// constant per binary.
type VersionInfo struct {
	GoVersion     string `json:"go_version"`
	Module        string `json:"module,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
	Revision      string `json:"vcs_revision,omitempty"`
	Time          string `json:"vcs_time,omitempty"`
	Modified      bool   `json:"vcs_modified,omitempty"`
}

// Version reads the binary's build identity via runtime/debug.
func Version() VersionInfo {
	v := VersionInfo{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	v.Module = bi.Main.Path
	v.ModuleVersion = bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			v.Revision = s.Value
		case "vcs.time":
			v.Time = s.Value
		case "vcs.modified":
			v.Modified = s.Value == "true"
		}
	}
	return v
}

// shortRevision abbreviates a full VCS SHA for the health line.
func shortRevision(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}

// healthLine is the /healthz body: liveness plus just enough identity to
// tell which build answered.
func healthLine() string {
	v := Version()
	line := "ok " + v.Module
	if v.ModuleVersion != "" {
		line += "@" + v.ModuleVersion
	}
	if v.Revision != "" {
		line += " " + shortRevision(v.Revision)
	}
	return line
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) *result {
	return &result{status: http.StatusOK, body: jsonBody(Version())}
}
