package des

// Checkpoint support: a simulated world is snapshotted at a quiescent
// barrier — no events pending anywhere — so the only scheduler state a
// checkpoint must carry is the simulated clock. Restoring a world into a
// fresh scheduler therefore reduces to verifying quiescence and setting
// the clock; the event heap, mailboxes and per-lane sequence counters are
// all empty/irrelevant at a barrier by construction.

// Quiescent reports whether every lane's heap and every cross-lane
// mailbox is empty — the sharded scheduler's barrier condition. It first
// waits for any in-flight Run round to drain (a process resumed by one
// lane's event runs concurrently with the rest of the round), so calling
// it from a runnable process between RunSequenced workloads is safe.
func (ss *ShardedScheduler) Quiescent() bool {
	ss.roundBarrier()
	for _, lane := range ss.lanes {
		if lane.Pending() > 0 {
			return false
		}
	}
	for s := range ss.outMin {
		for _, at := range ss.outMin[s] {
			if at != infTime {
				return false
			}
		}
	}
	return true
}

// RestoreClock sets every lane's clock and the global round timestamp to
// t without dispatching anything. It is the restore-side counterpart of a
// checkpoint taken at a quiescent barrier; callers must verify Quiescent
// first, since moving the clock over pending events would violate the
// time-ordered dispatch invariant. The per-lane sequence counters are deliberately left alone: they
// only break ties among events scheduled into the same lane after the
// restore, and relative order within a lane is all dispatch depends on.
// Safe across differing lane counts — the checkpoint carries one barrier
// timestamp, not per-lane clocks, because at a barrier all lanes agree.
func (ss *ShardedScheduler) RestoreClock(t Time) {
	for _, lane := range ss.lanes {
		lane.now = t
	}
	ss.lastT = t
}
