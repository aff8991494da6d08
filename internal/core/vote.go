package core

import (
	"fmt"

	"smvx/internal/libc"
)

// Majority voting over the variant set: the one rendezvous rule.
//
// Every rendezvous, strict or at a pipelined barrier, is a vote. Ballot 0
// is the leader's call; each follower slot whose record arrived and
// decoded casts one more. Ballots agree under compareCalls — the same libc
// call name and no scalar-argument mismatch under the call row's Args
// (pointer arguments legitimately differ between the variants' windows) —
// the largest agreement class wins, and ties go to the leader. The paper's
// pair is the one-ballot case: a disagreeing follower loses the 1-1 tie,
// and a lone losing ballot keeps the pairwise alarm (call or argument
// mismatch). With more ballots a loser is outvoted: a single corrupted
// variant loses to the agreeing majority, which keeps serving while only
// the minority is quarantined through the detach/restart/rollback
// policies.

// Ballot is one variant's half of an N-way rendezvous: the libc call it
// arrived with. Ballot 0 is always the leader. Invalid ballots (a record
// that failed to decode) never join an agreement class and are always
// among the losers.
type Ballot struct {
	// Variant is the dense variant index casting this ballot.
	Variant VariantID
	// Name is the libc call the variant issued.
	Name string
	// Args are the call's raw argument values.
	Args []uint64
	// Valid marks a ballot that decoded correctly and may join a class.
	Valid bool
}

// VoteResult is the outcome of one majority vote.
type VoteResult struct {
	// Winner is the lowest ballot index inside the winning agreement class,
	// or -1 when no ballot is valid.
	Winner int
	// Losers has bit i set for each ballot i outside the winning class
	// (invalid ballots included); MaxVariants bits fit.
	Losers uint16
	// Majority is the winning class's size.
	Majority int
}

// Lost reports whether ballot i is outside the winning class.
func (r VoteResult) Lost(i int) bool { return r.Losers&(1<<i) != 0 }

// callVerdict is the outcome of comparing two variants' calls at one
// rendezvous ordinal (Section 3.3): zero when they agree, else the
// pairwise alarm reason and, for an argument mismatch, the first
// differing scalar pair.
type callVerdict struct {
	reason AlarmReason
	l, f   uint64
}

// compareCalls is the rendezvous equivalence: same libc call, same scalar
// arguments. f is the row of either call: its mask decides only once the
// names agree. It alone decides the vote's agreement classes, the alarm a
// lone losing follower raises, and the pipelined drain-time check.
func compareCalls(f *libc.Func, lname string, largs []uint64, fname string, fargs []uint64) callVerdict {
	if lname != fname {
		return callVerdict{reason: AlarmCallMismatch}
	}
	if bad, l, fv := scalarMismatch(f, largs, fargs); bad {
		return callVerdict{reason: AlarmArgMismatch, l: l, f: fv}
	}
	return callVerdict{}
}

// alarm is the pairwise divergence alarm for a failed compare at call idx
// of region fn; the caller names the variant.
func (v callVerdict) alarm(fn string, idx uint64, lname, fname string) Alarm {
	a := Alarm{
		Reason: v.reason, CallIndex: idx, Function: fn, LeaderCall: lname, FollowerCall: fname,
		Detail: fmt.Sprintf("leader called %s, follower called %s", lname, fname),
	}
	if v.reason == AlarmArgMismatch {
		a.Detail = fmt.Sprintf("%s arg mismatch: leader %#x vs follower %#x", lname, v.l, v.f)
	}
	return a
}

// cause is the detach slug for a failed compare.
func (v callVerdict) cause() string {
	if v.reason == AlarmArgMismatch {
		return "arg-mismatch"
	}
	return "call-mismatch"
}

// Vote partitions the ballots into agreement classes (greedily, in ballot
// order, comparing against each class's first member) and elects the
// largest class; ties break toward the class containing the lowest ballot
// index, so a split vote never outvotes the leader. At most MaxVariants
// ballots may vote, and the vote allocates nothing.
func Vote(ballots []Ballot) VoteResult {
	if len(ballots) == 0 {
		return VoteResult{Winner: -1}
	}
	return vote(libc.Lookup(ballots[0].Name), ballots)
}

// vote is Vote with f, the row of ballot 0's call, already looked up.
func vote(f *libc.Func, ballots []Ballot) VoteResult {
	if len(ballots) > MaxVariants {
		panic(fmt.Sprintf("core.Vote: %d ballots, at most %d variants vote", len(ballots), MaxVariants))
	}
	// class[i] names ballot i's class by its first member (-1: invalid);
	// size[j] counts the members of the class ballot j founded.
	var class, size [MaxVariants]int
	for i, b := range ballots {
		class[i] = -1
		if !b.Valid {
			continue
		}
		class[i] = i
		for j := 0; j < i; j++ {
			if class[j] != j {
				continue
			}
			fj := f
			if ballots[j].Name != f.Name {
				// A class founded by a call other than ballot 0's: rare,
				// since it takes a diverging variant.
				fj = libc.Lookup(ballots[j].Name)
			}
			if compareCalls(fj, ballots[j].Name, ballots[j].Args, b.Name, b.Args).reason == 0 {
				class[i] = j
				break
			}
		}
		size[class[i]]++
	}
	// Classes were founded in ballot order, so the first maximal class is
	// the one containing the lowest index.
	res := VoteResult{Winner: -1}
	for j := range ballots {
		if class[j] == j && size[j] > res.Majority {
			res.Winner, res.Majority = j, size[j]
		}
	}
	for i := range ballots {
		if res.Winner < 0 || class[i] != res.Winner {
			res.Losers |= 1 << i
		}
	}
	return res
}
