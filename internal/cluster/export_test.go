package cluster

// HoldJob vetoes the termination of every job with this ID until release
// runs: a test keeps a job open while it crashes, drains or replaces
// workers, instead of racing the job's duration.
func HoldJob(id string) (release func()) {
	heldJobs.Store(id, struct{}{})
	return func() { heldJobs.Delete(id) }
}
