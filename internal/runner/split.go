package runner

// SplitCores divides procs cores between an outer worker pool running
// tasks independent simulations and the per-simulation shard count,
// for fan-out layers (the fleet) whose simulations can each use the
// sharded event engine. shards is the per-task shard request. The
// split is work-conserving: while tasks outnumber cores every core
// runs a one-shard task; once tasks fit, each task gets a worker and
// the leftover cores become shards. It returns the outer pool size and
// the effective per-task shard count; workers*shardsPer never exceeds
// max(procs, 1), both returns are at least 1, workers never exceeds
// tasks, and shardsPer never exceeds the request.
func SplitCores(procs, tasks, shards int) (workers, shardsPer int) {
	procs = max(procs, 1)
	tasks = max(tasks, 1)
	shards = max(shards, 1)
	workers = min(procs, tasks)
	return workers, min(shards, procs/workers)
}
