package main

import (
	"testing"
	"time"
)

func TestTableGuardRoutesToTheHoldingConnection(t *testing.T) {
	g := newTableGuard()
	pick := func(k int) func() int { return func() int { return k } }
	if k := g.route("T1", pick(1)); k != 1 {
		t.Fatalf("free table: got connection %d, want pick() = 1", k)
	}
	if k := g.route("T1", pick(0)); k != 1 {
		t.Fatalf("held table: got connection %d, want its holder 1", k)
	}
	if k := g.route("T3", pick(0)); k != 0 {
		t.Fatalf("other table: got connection %d, want pick() = 0", k)
	}
	g.release("T1")
	if k := g.route("T1", pick(0)); k != 1 {
		t.Fatalf("still held once: got connection %d, want 1", k)
	}
	g.release("T1")
	g.release("T1")
	if k := g.route("T1", pick(0)); k != 0 {
		t.Fatalf("released table: got connection %d, want pick() = 0", k)
	}
	if k := g.route("", pick(1)); k != 1 {
		t.Fatalf("no table: got connection %d, want pick() = 1", k)
	}
}

func TestTableGuardHoldWaitsForTheOtherConnection(t *testing.T) {
	g := newTableGuard()
	g.hold("T1", 0)
	g.hold("T1", 0) // the holder itself never waits
	g.hold("T3", 1) // nor does another table
	held := make(chan struct{})
	go func() {
		g.hold("T1", 1)
		close(held)
	}()
	g.release("T1")
	select {
	case <-held:
		t.Fatal("connection 1 held T1 while connection 0 still had a script over it")
	case <-time.After(50 * time.Millisecond):
	}
	g.release("T1")
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("connection 1 still waits after T1 was released")
	}
}

func TestNilTableGuardGuardsNothing(t *testing.T) {
	var g *tableGuard
	g.hold("T1", 0)
	g.hold("T1", 1)
	if k := g.route("T1", func() int { return 1 }); k != 1 {
		t.Fatalf("got connection %d, want pick() = 1", k)
	}
	g.release("T1")
}
