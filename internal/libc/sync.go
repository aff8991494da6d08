package libc

// SyncClass classifies a libc call by how much run-ahead the pipelined
// lockstep mode may tolerate before verifying it. The three emulation
// categories of Table 1 map onto three synchronization disciplines:
// results-emulation calls only move data from leader to follower, so the
// leader can publish the result on the rendezvous ring and keep running;
// state-changing or externally-visible calls must not retire before the
// follower has verified every earlier call, because their effects cannot
// be recalled once they leave the process.
type SyncClass int

const (
	// SyncLocal: each variant executes the call in its own address range
	// (CatLocal). Nothing crosses the ring beyond the name/argument record
	// used for divergence checking, so the call pipelines freely.
	SyncLocal SyncClass = iota + 1
	// SyncPipelined: the leader executes the call, snapshots the return
	// value and output buffers into the ring record, and runs ahead; the
	// follower verifies and applies the snapshot at drain time.
	SyncPipelined
	// SyncBarrier: the call's effects are externally visible (file and
	// socket writes, fd lifecycle, kernel configuration). The leader
	// drains the ring — waiting for the follower to verify every earlier
	// call — and performs a full strict rendezvous before executing.
	SyncBarrier
)

// String names the sync class for metrics labels and docs.
func (c SyncClass) String() string {
	switch c {
	case SyncLocal:
		return "local"
	case SyncPipelined:
		return "pipelined"
	case SyncBarrier:
		return "barrier"
	default:
		return "unknown"
	}
}
