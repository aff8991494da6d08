package ledger

import (
	"testing"

	"smvx/internal/obs"
	"smvx/internal/obs/blackbox"
	"smvx/internal/sim/clock"
)

// strictCallCharges are the ledger charges one strict N=2 rendezvous makes
// (see internal/core): both variants' trampolines, the follower's marshal
// and wait, the leader's rendezvous entry, wait, compare and emulation, and
// the leader's libc dispatch.
var strictCallCharges = [...]struct {
	p      Phase
	v      obs.Variant
	cycles clock.Cycles
	bytes  uint64
}{
	{PhaseTrampoline, obs.VariantLeader, 90, 0},
	{PhaseTrampoline, obs.VariantFollower, 90, 0},
	{PhaseMarshal, obs.VariantFollower, 0, 48},
	{PhaseRendezvous, obs.VariantLeader, 2000, 0},
	{PhaseWait, obs.VariantLeader, 310, 0},
	{PhaseWait, obs.VariantFollower, 120, 0},
	{PhaseCompare, obs.VariantLeader, 0, 48},
	{PhaseEmulate, obs.VariantLeader, 64, 64},
	{PhaseLibc, obs.VariantLeader, 60, 0},
	{PhaseLibc, obs.VariantFollower, 60, 0},
}

// regionCharges is the number of charges one benchmarked region makes:
// sixty-eight strict calls, 680 charges over 30 cells. A traced
// nginx-rollback-attack run (perfbench/run.py --trace 1, seed 42) opens one
// protected region per request and charges 682 per request (the sum of its
// ledger.*.count_per_req) over about 31 cells.
const regionCharges = 68 * len(strictCallCharges)

// BenchmarkLedgerRegion times one protected region's ledger work with the
// whole recording plane a -ledger -blackbox run attaches: regionCharges
// charges of strict N=2 calls over the three sync classes, into a ledger
// mirrored into a recorder whose sink is an open black-box WAL writer,
// then the region's mvx_end flush. It reports ns per charge; the flush is
// spread over the region's charges.
func BenchmarkLedgerRegion(b *testing.B) {
	rec := obs.NewRecorder(obs.Config{})
	w, err := blackbox.Open(b.TempDir(), blackbox.Meta{Capacity: obs.DefaultCapacity},
		blackbox.Options{MaxSegments: 2, NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	rec.SetSink(w)
	l := New()
	l.SetRecorder(rec)
	rg := l.Region("ngx_http_process_request_line")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for call := 0; call < regionCharges/len(strictCallCharges); call++ {
			c := ClassLocal + Class(call%3)
			for _, ch := range strictCallCharges {
				rg.Add(ch.p, ch.v, c, ch.cycles, Mark{}, ch.bytes)
			}
		}
		rg.Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*regionCharges), "ns/charge")
}
