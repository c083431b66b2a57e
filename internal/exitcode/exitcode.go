// Package exitcode is the repository-wide exit-status taxonomy. Every
// command (pybench, pybenchd, benchgate, benchlint, benchjson, pylint,
// tracecheck, benchchaos) maps its outcomes onto the same five codes, so CI
// scripts can branch on *why* a step failed without parsing stderr:
//
//	0 — success
//	1 — finding: the tool worked and found what it gates on (a perf
//	    regression, a lint diagnostic, an equivalence mismatch)
//	2 — usage: bad flags or arguments; nothing ran
//	3 — infrastructure: an I/O or environment failure (unreadable input,
//	    failed write, broken subprocess) — rerunning may succeed
//	4 — degraded: the run finished but below its quality floor (quorum not
//	    met); results exist but must not be trusted as a full campaign
package exitcode

// The taxonomy. Values are stable public interface; CI depends on them.
const (
	OK       = 0
	Finding  = 1
	Usage    = 2
	Infra    = 3
	Degraded = 4
)

// String names a code for log lines.
func String(code int) string {
	switch code {
	case OK:
		return "ok"
	case Finding:
		return "finding"
	case Usage:
		return "usage"
	case Infra:
		return "infrastructure"
	case Degraded:
		return "degraded"
	}
	return "unknown"
}
