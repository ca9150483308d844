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
	garbage := s.oracle.GarbageByPartition()
	out := make([]PartitionInfo, len(garbage))
	for i, g := range garbage {
		pid := heap.PartitionID(i)
		p := s.h.Partition(pid)
		out[i] = PartitionInfo{
			ID:            pid,
			Empty:         pid == s.h.EmptyPartition(),
			UsedBytes:     p.Used(),
			LiveBytes:     p.Used() - g,
			GarbageBytes:  g,
			Objects:       p.Len(),
			RemsetEntries: s.rem.InCount(pid),
		}
	}
	return out
}
