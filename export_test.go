package gqr

// LockWriter takes ix's writer lock, as an in-flight Add does, and
// returns the function that releases it. External tests use it to check
// that read paths never wait for writers.
func LockWriter(ix *Index) (unlock func()) {
	ix.writeMu.Lock()
	return ix.writeMu.Unlock
}
