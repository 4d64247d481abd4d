package sim

// UseHeapScheduler makes NewEnv build the reference binary heap instead of
// the event queue until the returned function restores the previous
// constructor. Tests that call it must not run in parallel with tests that
// create environments.
func UseHeapScheduler() (restore func()) {
	prev := newScheduler
	newScheduler = func() scheduler { return &heapSched{} }
	return func() { newScheduler = prev }
}
