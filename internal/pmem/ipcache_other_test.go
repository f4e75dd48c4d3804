//go:build !amd64

package pmem

import "github.com/pmemgo/xfdetector/internal/trace"

// Record runs the bounded walk from its own frame, where it skips Record
// as it skips the capture helper, and the reference walk.
func (r *ipProbe) Record(e trace.Entry) {
	walked := callerIP()
	reference, depth := refCallerIP()
	r.got = append(r.got, ipProbed{kind: e.Kind, captured: e.IP, walked: walked, reference: reference, depth: depth})
}
