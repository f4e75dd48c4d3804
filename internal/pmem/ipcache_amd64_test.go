package pmem

import "github.com/pmemgo/xfdetector/internal/trace"

// Record runs the frame-pointer walk from its own frame, the way callerIP
// runs it from the capture helper's, and the reference walk.
func (r *ipProbe) Record(e trace.Entry) {
	var pcs [ipMaxPCs]uintptr
	walked := firstOutside(pcs[:fpCallers(getfp(), &pcs)])
	reference, depth := refCallerIP()
	r.got = append(r.got, ipProbed{kind: e.Kind, captured: e.IP, walked: walked, reference: reference, depth: depth})
}
