package pagebuf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTiered(t *testing.T, clientPages, serverPages int) *Buffer {
	t.Helper()
	tt, err := NewTiered(clientPages, serverPages)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestNewTieredValidates(t *testing.T) {
	if _, err := NewTiered(0, 4); err == nil {
		t.Error("zero client pages accepted")
	}
	if _, err := NewTiered(4, 0); err == nil {
		t.Error("zero server pages accepted")
	}
}

func TestTieredClientHitCostsNothing(t *testing.T) {
	tt := mustTiered(t, 4, 8)
	tt.Write(1, ActorApp)
	tt.Read(1, ActorApp)
	if tt.Stats().TotalIOs() != 0 {
		t.Fatalf("network ops on client hits: %+v", tt.Stats())
	}
	if tt.Server().Stats().TotalIOs() != 0 {
		t.Fatalf("disk ops on client hits: %+v", tt.Server().Stats())
	}
}

func TestTieredEvictionShipsToServer(t *testing.T) {
	tt := mustTiered(t, 1, 8)
	tt.Write(1, ActorApp)
	tt.Write(2, ActorApp) // client evicts dirty page 1 -> network
	net := tt.Stats().App()
	if net.WriteIOs != 1 {
		t.Fatalf("network writes = %d, want 1", net.WriteIOs)
	}
	// The server cached the shipped page; no disk I/O yet (write-back).
	if tt.Server().Stats().TotalIOs() != 0 {
		t.Fatalf("disk ops before server eviction: %+v", tt.Server().Stats())
	}
	if !tt.Server().Contains(1) {
		t.Fatal("server does not hold the shipped page")
	}
}

func TestTieredRefetchFromServerIsNetworkOnly(t *testing.T) {
	tt := mustTiered(t, 1, 8)
	tt.Write(1, ActorApp)
	tt.Write(2, ActorApp) // ships page 1 to server
	tt.Read(1, ActorApp)  // fetch back: network read, server hit
	net := tt.Stats().App()
	if net.ReadIOs != 1 {
		t.Fatalf("network reads = %d, want 1", net.ReadIOs)
	}
	if tt.Server().Stats().TotalIOs() != 0 {
		t.Fatalf("disk ops while server holds the page: %+v", tt.Server().Stats())
	}
}

func TestTieredServerEvictionHitsDisk(t *testing.T) {
	tt := mustTiered(t, 1, 2)
	// Ship three distinct dirty pages through the 1-page client into the
	// 2-page server: the server must evict one to disk.
	for p := PageID(1); p <= 4; p++ {
		tt.Write(p, ActorApp)
	}
	disk := tt.Server().Stats().App()
	if disk.WriteIOs == 0 {
		t.Fatalf("no disk writes after overflowing the server buffer: %+v", disk)
	}
	// Reading the disk-resident page back costs network + disk.
	netBefore, diskBefore := tt.Stats().App().ReadIOs, tt.Server().Stats().App().ReadIOs
	tt.Read(1, ActorApp)
	if tt.Stats().App().ReadIOs != netBefore+1 {
		t.Fatal("refetch did not count a network read")
	}
	if tt.Server().Stats().App().ReadIOs != diskBefore+1 {
		t.Fatal("refetch of disk-resident page did not count a disk read")
	}
}

func TestTieredActorAttributionPropagates(t *testing.T) {
	tt := mustTiered(t, 1, 8)
	tt.Write(1, ActorGC)
	tt.Write(2, ActorApp) // app's miss evicts GC's dirty page
	net := tt.Stats()
	if net.GC().WriteIOs != 0 || net.App().WriteIOs != 1 {
		t.Fatalf("network attribution: %+v", net)
	}
	if tt.Server().Stats().GC().Accesses() != 0 && tt.Server().Stats().App().Accesses() == 0 {
		t.Fatalf("server access attribution: %+v", tt.Server().Stats())
	}
}

// TestTieredInvariants drives random traffic and checks structural
// invariants: a page on the client that has ever been evicted exists at
// the server or on disk; network reads equal the server's accesses.
func TestTieredInvariants(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tt, err := NewTiered(3, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(nOps%600)+1; i++ {
			p := PageID(rng.Intn(20))
			if rng.Intn(2) == 0 {
				tt.Write(p, ActorApp)
			} else {
				tt.Read(p, ActorApp)
			}
		}
		net := tt.Stats().App()
		// Every network transfer corresponds to exactly one server access.
		serverAccesses := tt.Server().Stats().App().Accesses()
		if serverAccesses != net.ReadIOs+net.WriteIOs {
			t.Errorf("server accesses %d != network reads %d + writes %d",
				serverAccesses, net.ReadIOs, net.WriteIOs)
			return false
		}
		// Disk traffic can never exceed network traffic.
		if d := tt.Server().Stats().App(); d.ReadIOs > net.ReadIOs || d.WriteIOs > net.WriteIOs {
			t.Errorf("disk (%d,%d) exceeds network (%d,%d)",
				d.ReadIOs, d.WriteIOs, net.ReadIOs, net.WriteIOs)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTieredResetStats(t *testing.T) {
	tt := mustTiered(t, 1, 2)
	for p := PageID(1); p <= 4; p++ {
		tt.Write(p, ActorApp)
	}
	tt.ResetStats()
	if tt.Stats().TotalIOs() != 0 || tt.Server().Stats().TotalIOs() != 0 {
		t.Fatal("ResetStats left counters")
	}
}
