package pmem

import "unsafe"

// getfp returns its caller's frame pointer (ipcache_amd64.s).
func getfp() unsafe.Pointer

// callerIP returns the file:line of the nearest caller outside this package
// within ipMaxPCs physical frames of the capture helper. The walk starts at
// callerIP's own frame, so its first PC is the return address into the
// capture helper; callerIP must not be inlined, or that first physical
// frame would be the helper's caller, and inlining can put user code there.
//
//go:noinline
func callerIP() string {
	var pcs [ipMaxPCs]uintptr
	n := fpCallers(getfp(), &pcs)
	return firstOutside(pcs[:n])
}

// fpCallers copies into pcs the return addresses of the frames above the
// one whose frame pointer is fp, following the saved frame pointers: an
// amd64 frame holds its caller's frame pointer at fp and its return address
// one word above. The chain ends at a goroutine's first frame, whose saved
// frame pointer is nil. Go frames keep the chain intact on amd64 and C
// frames need not, so the walk assumes no C code calls a pool accessor (the
// runtime's tracer falls back to its unwinder when cgo is on the stack).
// fp points into the goroutine stack, which moves when it grows, so the
// loop calls nothing: nosplit keeps the stack check out of the prologue and
// norace keeps the race detector's calls out of the loads.
//
//go:nosplit
//go:noinline
//go:norace
func fpCallers(fp unsafe.Pointer, pcs *[ipMaxPCs]uintptr) int {
	n := 0
	for ; n < len(pcs) && fp != nil; n++ {
		pcs[n] = *(*uintptr)(unsafe.Add(fp, 8))
		fp = *(*unsafe.Pointer)(fp)
	}
	return n
}

// firstOutside resolves pcs in order and returns the first location outside
// this package, or "" if every frame is internal.
func firstOutside(pcs []uintptr) string {
	for _, pc := range pcs {
		if ent := resolvePC(pc); ent.done {
			return ent.loc
		}
	}
	return ""
}
