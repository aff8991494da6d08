package core

import (
	"fmt"
	"reflect"
	"testing"
)

// voteBallot builds a valid ballot for a "write(fd, buf, len)" call with
// the given scalar fd — write's scalar mask makes fd the voted argument,
// while the buf pointer legitimately differs per variant window.
func voteBallot(variant int, fd uint64) Ballot {
	return Ballot{
		Variant: VariantID(variant),
		Name:    "write",
		Args:    []uint64{fd, 0x400500 + uint64(variant)*0x1000, 17},
		Valid:   true,
	}
}

// losers expands a result's loser bitmask into ascending ballot indices
// (nil when every ballot is in the winning class).
func losers(r VoteResult) []int {
	var out []int
	for i := 0; i < MaxVariants; i++ {
		if r.Lost(i) {
			out = append(out, i)
		}
	}
	return out
}

// TestVoteAllAgreementPatternsN3 enumerates every corruption pattern of a
// 3-variant set (each of leader, follower 1, follower 2 either casts the
// honest value or a shared corrupted one — all 2^3 subsets) and pins the
// winner, losers, and majority. The corrupted ballots agree with each
// other, which is the adversarial worst case: a colluding pair outvotes
// the lone honest leader at N=3.
func TestVoteAllAgreementPatternsN3(t *testing.T) {
	const honest, corrupt = 7, 7 ^ 1
	cases := []struct {
		corrupted    [3]bool
		wantWinner   int
		wantLosers   []int
		wantMajority int
	}{
		{[3]bool{false, false, false}, 0, nil, 3},
		{[3]bool{false, false, true}, 0, []int{2}, 2},
		{[3]bool{false, true, false}, 0, []int{1}, 2},
		// A colluding follower pair forms the larger class: the leader is
		// outvoted.
		{[3]bool{false, true, true}, 1, []int{0}, 2},
		// A corrupted leader is outvoted by the honest followers.
		{[3]bool{true, false, false}, 1, []int{0}, 2},
		// Leader plus one corrupted follower still outvote the honest
		// straggler — garbage in, garbage wins; the vote only measures
		// agreement.
		{[3]bool{true, false, true}, 0, []int{1}, 2},
		{[3]bool{true, true, false}, 0, []int{2}, 2},
		// Everyone corrupted the same way: unanimous, no losers.
		{[3]bool{true, true, true}, 0, nil, 3},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%v", c.corrupted)
		t.Run(name, func(t *testing.T) {
			ballots := make([]Ballot, 3)
			for i, bad := range c.corrupted {
				v := uint64(honest)
				if bad {
					v = corrupt
				}
				ballots[i] = voteBallot(i, v)
			}
			res := Vote(ballots)
			if res.Winner != c.wantWinner {
				t.Errorf("winner = %d, want %d", res.Winner, c.wantWinner)
			}
			if got := losers(res); !reflect.DeepEqual(got, c.wantLosers) {
				t.Errorf("losers = %v, want %v", got, c.wantLosers)
			}
			if res.Majority != c.wantMajority {
				t.Errorf("majority = %d, want %d", res.Majority, c.wantMajority)
			}
		})
	}
}

// TestVoteNameMismatch pins that a differing call name splits the class
// even when the arguments happen to line up.
func TestVoteNameMismatch(t *testing.T) {
	ballots := []Ballot{
		voteBallot(0, 3),
		voteBallot(1, 3),
		{Variant: 2, Name: "read", Args: []uint64{3, 0x400500, 17}, Valid: true},
	}
	res := Vote(ballots)
	if res.Winner != 0 || res.Majority != 2 || !reflect.DeepEqual(losers(res), []int{2}) {
		t.Errorf("vote = %+v, want leader wins 2-1 over the read ballot", res)
	}
}

// TestVoteInvalidBallots pins that undecodable records never join a class
// and always lose, and that a rendezvous with no valid ballot at all
// elects nobody.
func TestVoteInvalidBallots(t *testing.T) {
	ballots := []Ballot{
		voteBallot(0, 3),
		{Variant: 1, Valid: false},
		voteBallot(2, 3),
	}
	res := Vote(ballots)
	if res.Winner != 0 || res.Majority != 2 || !reflect.DeepEqual(losers(res), []int{1}) {
		t.Errorf("vote = %+v, want invalid ballot among losers", res)
	}

	none := Vote([]Ballot{{Valid: false}, {Valid: false}})
	if none.Winner != -1 || !reflect.DeepEqual(losers(none), []int{0, 1}) || none.Majority != 0 {
		t.Errorf("all-invalid vote = %+v, want winner -1 and everyone losing", none)
	}
}

// TestVoteTieBreaksTowardLeader pins the first-maximal tie-break: at an
// even split the class containing the lowest ballot index — the leader's —
// wins, so a split vote can never outvote the leader.
func TestVoteTieBreaksTowardLeader(t *testing.T) {
	ballots := []Ballot{
		voteBallot(0, 3),
		voteBallot(1, 9),
		voteBallot(2, 3),
		voteBallot(3, 9),
	}
	res := Vote(ballots)
	if res.Winner != 0 || res.Majority != 2 || !reflect.DeepEqual(losers(res), []int{1, 3}) {
		t.Errorf("2-2 vote = %+v, want the leader's class to win the tie", res)
	}
}

// TestVotePairDegenerates pins the N=2 shape: a pair vote is exactly the
// pairwise compare — agreement elects both, disagreement elects the
// leader's singleton class.
func TestVotePairDegenerates(t *testing.T) {
	agree := Vote([]Ballot{voteBallot(0, 3), voteBallot(1, 3)})
	if agree.Winner != 0 || agree.Majority != 2 || agree.Losers != 0 {
		t.Errorf("agreeing pair = %+v", agree)
	}
	differ := Vote([]Ballot{voteBallot(0, 3), voteBallot(1, 4)})
	if differ.Winner != 0 || differ.Majority != 1 || !reflect.DeepEqual(losers(differ), []int{1}) {
		t.Errorf("differing pair = %+v, want leader's singleton to win", differ)
	}
}

// TestVoteAllocatesNothing pins the allocation-free vote at the set sizes
// the workloads run: the rendezvous votes once per libc call.
func TestVoteAllocatesNothing(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		ballots := make([]Ballot, n)
		for i := range ballots {
			ballots[i] = voteBallot(i, 3)
		}
		ballots[n-1] = voteBallot(n-1, 4) // one loser exercises the split path
		if allocs := testing.AllocsPerRun(100, func() { Vote(ballots) }); allocs != 0 {
			t.Errorf("Vote over %d ballots allocates %.0f times, want 0", n, allocs)
		}
	}
}

// TestCompareCallsVerdicts pins the one rendezvous equivalence and the
// pairwise alarm it yields for a lone losing follower.
func TestCompareCallsVerdicts(t *testing.T) {
	args := []uint64{3, 0x400500, 17}
	if v := compareCalls("write", args, "write", []uint64{3, 0x2000_0040_0500, 17}); v.reason != 0 {
		t.Errorf("pointer-only difference = %+v, want agreement", v)
	}
	call := compareCalls("write", args, "read", args)
	if a := call.alarm("f", 4, "write", "read"); a.Reason != AlarmCallMismatch || call.cause() != "call-mismatch" ||
		a.Detail != "leader called write, follower called read" {
		t.Errorf("name mismatch alarm = %+v (cause %s)", a, call.cause())
	}
	arg := compareCalls("write", args, "write", []uint64{2, 0x400500, 17})
	if a := arg.alarm("f", 4, "write", "write"); a.Reason != AlarmArgMismatch || arg.cause() != "arg-mismatch" ||
		a.Detail != "write arg mismatch: leader 0x3 vs follower 0x2" || a.CallIndex != 4 {
		t.Errorf("arg mismatch alarm = %+v (cause %s)", a, arg.cause())
	}
}
