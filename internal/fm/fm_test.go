package fm

import (
	"errors"
	"testing"

	"dpa/internal/machine"
	"dpa/internal/sim"
)

func TestActiveMessageDispatch(t *testing.T) {
	net := NewNet()
	type ctx struct{ got []int }
	h := net.Register(func(ep *EP, m sim.Message) {
		c := ep.Ctx.(*ctx)
		c.got = append(c.got, m.Payload.(int))
	})
	m := machine.New(machine.DefaultT3D(2))
	var received []int
	m.Run(func(n *machine.Node) {
		ep := NewEP(net, n)
		c := &ctx{}
		ep.Ctx = c
		if n.ID() == 0 {
			for i := 0; i < 3; i++ {
				ep.Send(1, h, i*10, 8)
			}
		} else {
			for len(c.got) < 3 {
				ep.WaitAndDispatch()
			}
			received = c.got
		}
	})
	if len(received) != 3 || received[0] != 0 || received[1] != 10 || received[2] != 20 {
		t.Fatalf("received %v", received)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	net := NewNet()
	m := machine.New(machine.DefaultT3D(n))
	var before, after [n]sim.Time
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		// Stagger the nodes heavily.
		nd.Charge(sim.Compute, sim.Time(nd.ID()*10000))
		before[nd.ID()] = nd.Now()
		ep.Barrier()
		after[nd.ID()] = nd.Now()
	})
	// Every node must leave the barrier no earlier than the slowest node
	// entered it.
	var maxBefore sim.Time
	for _, b := range before {
		if b > maxBefore {
			maxBefore = b
		}
	}
	for i, a := range after {
		if a < maxBefore {
			t.Errorf("node %d left barrier at %d, before slowest entry %d", i, a, maxBefore)
		}
	}
}

func TestMultipleBarriers(t *testing.T) {
	const n = 4
	const rounds = 5
	net := NewNet()
	m := machine.New(machine.DefaultT3D(n))
	counts := make([]int, n)
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		for r := 0; r < rounds; r++ {
			nd.Charge(sim.Compute, sim.Time((nd.ID()+1)*100*(r+1)))
			ep.Barrier()
			counts[nd.ID()]++
		}
	})
	for i, c := range counts {
		if c != rounds {
			t.Errorf("node %d completed %d barriers, want %d", i, c, rounds)
		}
	}
}

func TestBarrierSingleNode(t *testing.T) {
	net := NewNet()
	m := machine.New(machine.DefaultT3D(1))
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		ep.Barrier()
		ep.Barrier()
	})
}

func TestServiceDuringBarrier(t *testing.T) {
	// Node 1 enters the barrier early but must keep serving request
	// handlers from node 0 that arrive while it waits.
	net := NewNet()
	served := 0
	var hReq, hResp int
	hReq = net.Register(func(ep *EP, m sim.Message) {
		served++
		ep.Send(m.From, hResp, m.Payload, 8)
	})
	hResp = net.Register(func(ep *EP, m sim.Message) {
		c := ep.Ctx.(*int)
		*c++
	})
	m := machine.New(machine.DefaultT3D(2))
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		replies := 0
		ep.Ctx = &replies
		if nd.ID() == 0 {
			nd.Charge(sim.Compute, 50000) // let node 1 reach the barrier first
			for i := 0; i < 10; i++ {
				ep.Send(1, hReq, i, 8)
			}
			for replies < 10 {
				ep.WaitAndDispatch()
			}
		}
		ep.Barrier()
	})
	if served != 10 {
		t.Fatalf("node 1 served %d requests during barrier, want 10", served)
	}
}

func TestRegisterAfterSealPanics(t *testing.T) {
	net := NewNet()
	m := machine.New(machine.DefaultT3D(1))
	m.Run(func(nd *machine.Node) {
		NewEP(net, nd)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Register(func(ep *EP, m sim.Message) {})
}

func TestUnknownHandlerTypedError(t *testing.T) {
	net := NewNet()
	m := machine.New(machine.DefaultT3D(2))
	m.Run(func(nd *machine.Node) {
		ep := NewEP(net, nd)
		if nd.ID() == 0 {
			ep.Send(1, 999, nil, 4)
			return
		}
		ep.WaitAndDispatch()
		err := ep.Err()
		if err == nil {
			t.Error("expected recorded error for unknown handler")
			return
		}
		if !errors.Is(err, ErrUnknownHandler) {
			t.Errorf("error %v is not ErrUnknownHandler", err)
		}
		var he *HandlerError
		if !errors.As(err, &he) {
			t.Errorf("error %v is not *HandlerError", err)
		} else if he.Handler != 999 || he.Node != 1 || he.From != 0 {
			t.Errorf("bad HandlerError %+v", he)
		}
		if fs := ep.FaultStats(); fs.UnknownHandler != 1 {
			t.Errorf("UnknownHandler count = %d, want 1", fs.UnknownHandler)
		}
	})
}
