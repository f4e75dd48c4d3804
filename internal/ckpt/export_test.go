package ckpt

// OpenLogUnsynced is OpenLog without its fsyncs, for tests that reopen a
// log tens of thousands of times.
func OpenLogUnsynced(path string) (*Log, []Line, error) {
	return openLog(path, false, false)
}
