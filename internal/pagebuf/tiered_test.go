package pagebuf

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustTiered(t *testing.T, clientPages, serverPages int) *Tiered {
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
	tt.Client().Write(1, ActorApp)
	tt.Client().Read(1, ActorApp)
	if tt.NetworkStats().TotalIOs() != 0 {
		t.Fatalf("network ops on client hits: %+v", tt.NetworkStats())
	}
	if tt.DiskStats().TotalIOs() != 0 {
		t.Fatalf("disk ops on client hits: %+v", tt.DiskStats())
	}
}

func TestTieredEvictionShipsToServer(t *testing.T) {
	tt := mustTiered(t, 1, 8)
	tt.Client().Write(1, ActorApp)
	tt.Client().Write(2, ActorApp) // client evicts dirty page 1 -> network
	net := tt.NetworkStats().App()
	if net.WriteIOs != 1 {
		t.Fatalf("network writes = %d, want 1", net.WriteIOs)
	}
	// The server cached the shipped page; no disk I/O yet (write-back).
	if tt.DiskStats().TotalIOs() != 0 {
		t.Fatalf("disk ops before server eviction: %+v", tt.DiskStats())
	}
	if !tt.Server().Contains(1) {
		t.Fatal("server does not hold the shipped page")
	}
}

func TestTieredRefetchFromServerIsNetworkOnly(t *testing.T) {
	tt := mustTiered(t, 1, 8)
	tt.Client().Write(1, ActorApp)
	tt.Client().Write(2, ActorApp) // ships page 1 to server
	tt.Client().Read(1, ActorApp)  // fetch back: network read, server hit
	net := tt.NetworkStats().App()
	if net.ReadIOs != 1 {
		t.Fatalf("network reads = %d, want 1", net.ReadIOs)
	}
	if tt.DiskStats().TotalIOs() != 0 {
		t.Fatalf("disk ops while server holds the page: %+v", tt.DiskStats())
	}
}

func TestTieredServerEvictionHitsDisk(t *testing.T) {
	tt := mustTiered(t, 1, 2)
	// Ship three distinct dirty pages through the 1-page client into the
	// 2-page server: the server must evict one to disk.
	for p := PageID(1); p <= 4; p++ {
		tt.Client().Write(p, ActorApp)
	}
	disk := tt.DiskStats().App()
	if disk.WriteIOs == 0 {
		t.Fatalf("no disk writes after overflowing the server buffer: %+v", disk)
	}
	// Reading the disk-resident page back costs network + disk.
	netBefore, diskBefore := tt.NetworkStats().App().ReadIOs, tt.DiskStats().App().ReadIOs
	tt.Client().Read(1, ActorApp)
	if tt.NetworkStats().App().ReadIOs != netBefore+1 {
		t.Fatal("refetch did not count a network read")
	}
	if tt.DiskStats().App().ReadIOs != diskBefore+1 {
		t.Fatal("refetch of disk-resident page did not count a disk read")
	}
}

func TestTieredActorAttributionPropagates(t *testing.T) {
	tt := mustTiered(t, 1, 8)
	tt.Client().Write(1, ActorGC)
	tt.Client().Write(2, ActorApp) // app's miss evicts GC's dirty page
	net := tt.NetworkStats()
	if net.GC().WriteIOs != 0 || net.App().WriteIOs != 1 {
		t.Fatalf("network attribution: %+v", net)
	}
	if tt.DiskStats().GC().Accesses != 0 && tt.DiskStats().App().Accesses == 0 {
		t.Fatalf("server access attribution: %+v", tt.DiskStats())
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
				tt.Client().Write(p, ActorApp)
			} else {
				tt.Client().Read(p, ActorApp)
			}
		}
		net := tt.NetworkStats().App()
		// Every network transfer corresponds to exactly one server access.
		serverAccesses := tt.DiskStats().App().Accesses
		if serverAccesses != net.ReadIOs+net.WriteIOs {
			t.Errorf("server accesses %d != network reads %d + writes %d",
				serverAccesses, net.ReadIOs, net.WriteIOs)
			return false
		}
		// Disk traffic can never exceed network traffic.
		if d := tt.DiskStats().App(); d.ReadIOs > net.ReadIOs || d.WriteIOs > net.WriteIOs {
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
		tt.Client().Write(p, ActorApp)
	}
	tt.ResetStats()
	if tt.NetworkStats().TotalIOs() != 0 || tt.DiskStats().TotalIOs() != 0 {
		t.Fatal("ResetStats left counters")
	}
}
