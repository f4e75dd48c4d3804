//go:build !amd64

package pmem

import "runtime"

const (
	// ipFirstPCs is the first walk's window: enough for every accessor
	// chain.
	ipFirstPCs = 4
	// ipSkip skips runtime.Callers, callerIP and the capture helper; the
	// remaining in-package frames (the pool accessor itself) are filtered
	// by file.
	ipSkip = 3
)

// callerIP returns the file:line of the nearest caller outside this package
// within ipMaxPCs frames of the capture helper's caller. Every accessor
// reaches its caller within four frames of the capture helper — Persist,
// the deepest chain, at the fourth — so it asks runtime.Callers for four
// PCs first and walks the remaining twelve only when all four are
// in-package, returning exactly what one 16-PC walk would.
func callerIP() string {
	var pcs [ipMaxPCs]uintptr
	n := runtime.Callers(ipSkip, pcs[:ipFirstPCs])
	for _, pc := range pcs[:n] {
		if ent := resolvePC(pc); ent.done {
			return ent.loc
		}
	}
	if n < ipFirstPCs {
		return ""
	}
	n = runtime.Callers(ipSkip+ipFirstPCs, pcs[ipFirstPCs:])
	for _, pc := range pcs[ipFirstPCs : ipFirstPCs+n] {
		if ent := resolvePC(pc); ent.done {
			return ent.loc
		}
	}
	return ""
}
