package sim

import "odbgc/internal/heap"

// PartitionInfo describes one partition's occupancy at inspection time.
type PartitionInfo struct {
	ID heap.PartitionID
	// Empty marks the reserved empty partition.
	Empty bool
	// UsedBytes is live + unreclaimed garbage; LiveBytes and GarbageBytes
	// split it using the oracle.
	UsedBytes    int64
	LiveBytes    int64
	GarbageBytes int64
	// Objects is the resident object count; RemsetEntries the number of
	// remembered pointers into the partition.
	Objects       int
	RemsetEntries int
}

// InspectPartitions returns a per-partition occupancy report, ordered by
// partition ID. It consults the oracle and so reflects exact liveness.
func (s *Sim) InspectPartitions() []PartitionInfo {
	live := s.oracle.Live()
	liveBytes := make([]int64, s.h.NumPartitions())
	live.ForEach(func(x heap.Slot) {
		liveBytes[s.h.PartitionOf(x)] += s.h.Size(x)
	})
	out := make([]PartitionInfo, s.h.NumPartitions())
	for i := range out {
		pid := heap.PartitionID(i)
		p := s.h.Partition(pid)
		out[i] = PartitionInfo{
			ID:            pid,
			Empty:         pid == s.h.EmptyPartition(),
			UsedBytes:     p.Used(),
			LiveBytes:     liveBytes[i],
			GarbageBytes:  p.Used() - liveBytes[i],
			Objects:       p.Len(),
			RemsetEntries: s.rem.InCount(pid),
		}
	}
	return out
}
