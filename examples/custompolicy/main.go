// Custom policy: implement your own partition selection policy and race
// it against the paper's policies on the identical workload.
//
// The example policy, "RoundRobin", cycles through the partitions in
// order — a plausible-sounding baseline the paper did not evaluate. Run it
// to see where it lands between Random and UpdatedPointer.
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"

	"odbgc"
	"odbgc/internal/core"
	"odbgc/internal/heap"
)

// roundRobin collects partitions in cyclic order, ignoring all write
// barrier information. It implements core.Policy.
type roundRobin struct {
	next heap.PartitionID
}

func (*roundRobin) Name() string                    { return "RoundRobin" }
func (*roundRobin) PointerStore(core.StoreContext)  {}
func (*roundRobin) DataStore(heap.PartitionID)      {}
func (*roundRobin) Collected(_, _ heap.PartitionID) {}

func (r *roundRobin) Select(env *core.Env) (heap.PartitionID, bool) {
	cands := env.Candidates()
	if len(cands) == 0 {
		return heap.NoPartition, false
	}
	for _, p := range cands {
		if p >= r.next {
			r.next = p + 1
			return p, true
		}
	}
	r.next = cands[0] + 1
	return cands[0], true
}

func main() {
	workload := odbgc.DefaultWorkloadConfig()

	type entry struct {
		name string
		cfg  odbgc.SimConfig
	}
	entries := []entry{
		{"Random", odbgc.DefaultSimConfig(odbgc.Random)},
		{"UpdatedPointer", odbgc.DefaultSimConfig(odbgc.UpdatedPointer)},
	}
	custom := odbgc.DefaultSimConfig("RoundRobin")
	custom.PolicyFactory = func() core.Policy { return &roundRobin{} }
	entries = append(entries, entry{"RoundRobin (custom)", custom})

	fmt.Printf("%-22s %12s %14s %12s\n", "policy", "total I/Os", "reclaimed KB", "reclaimed %")
	for _, e := range entries {
		res, _, err := odbgc.Run(e.cfg, workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %12d %14d %11.1f%%\n",
			e.name, res.TotalIOs, res.ReclaimedBytes/1024, 100*res.FractionReclaimed())
	}
	fmt.Println("\nRound-robin guarantees every partition is eventually collected, but")
	fmt.Println("it cannot chase garbage the way overwritten-pointer hints can.")
}
