package noderun

import (
	"testing"

	"ssmis/internal/graph"
	"ssmis/internal/xrand"
)

// echoProg beeps iff its flag is set and records what it heard.
type echoProg struct {
	beep    bool
	channel uint
	heard   uint32
	rounds  int
}

func (p *echoProg) Emit() uint32 {
	if p.beep {
		return 1 << p.channel
	}
	return 0
}

func (p *echoProg) Deliver(heard uint32) {
	p.heard = heard
	p.rounds++
}

func newEcho(n int) []*echoProg {
	ps := make([]*echoProg, n)
	for i := range ps {
		ps[i] = &echoProg{}
	}
	return ps
}

func asPrograms(ps []*echoProg) []Program {
	out := make([]Program, len(ps))
	for i, p := range ps {
		out[i] = p
	}
	return out
}

func TestMediumDeliversNeighborOR(t *testing.T) {
	g := graph.Path(4) // 0-1-2-3
	ps := newEcho(4)
	ps[0].beep = true
	e := NewEngine(g, BeepingCD(), asPrograms(ps))
	e.Step()
	if ps[1].heard != 1 {
		t.Fatalf("vertex 1 heard %b, want beep", ps[1].heard)
	}
	if ps[2].heard != 0 || ps[3].heard != 0 {
		t.Fatal("beep travelled more than one hop")
	}
	if ps[0].heard != 0 {
		t.Fatal("beeper heard its own beep (no beeping neighbor exists)")
	}
}

func TestCollisionDetectionModes(t *testing.T) {
	g := graph.Path(2)
	// Both beep. With CD each hears the other; without CD the own-channel
	// transmission masks reception.
	psCD := newEcho(2)
	psCD[0].beep, psCD[1].beep = true, true
	e := NewEngine(g, BeepingCD(), asPrograms(psCD))
	e.Step()
	if psCD[0].heard != 1 || psCD[1].heard != 1 {
		t.Fatalf("full-duplex: heard %b/%b, want 1/1", psCD[0].heard, psCD[1].heard)
	}

	// The classic beeping model: no sender collision detection.
	noCD := Model{Name: "beeping", Channels: 1, MaxBeepsPerNode: 1}
	psNo := newEcho(2)
	psNo[0].beep, psNo[1].beep = true, true
	e2 := NewEngine(g, noCD, asPrograms(psNo))
	e2.Step()
	if psNo[0].heard != 0 || psNo[1].heard != 0 {
		t.Fatalf("no-CD: heard %b/%b, want 0/0", psNo[0].heard, psNo[1].heard)
	}
	// A silent listener adjacent to a beeper still hears it without CD.
	psMix := newEcho(2)
	psMix[0].beep = true
	e3 := NewEngine(g, noCD, asPrograms(psMix))
	e3.Step()
	if psMix[1].heard != 1 {
		t.Fatal("listener did not hear beep in no-CD model")
	}
}

func TestChannelAlphabetEnforced(t *testing.T) {
	g := graph.Path(2)
	ps := newEcho(2)
	ps[0].beep = true
	ps[0].channel = 1 // outside the 1-channel beeping alphabet
	e := NewEngine(g, BeepingCD(), asPrograms(ps))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-alphabet beep did not panic")
		}
	}()
	e.Step()
}

func TestMaxBeepsEnforced(t *testing.T) {
	g := graph.Path(2)
	multi := &multiBeeper{}
	e := NewEngine(g, StoneAge(4), []Program{multi, &echoProg{}})
	defer func() {
		if recover() == nil {
			t.Fatal("multi-channel beep did not panic in stone age model")
		}
	}()
	e.Step()
}

type multiBeeper struct{}

func (*multiBeeper) Emit() uint32     { return 0b11 }
func (*multiBeeper) Deliver(_ uint32) {}

func TestStoneAgeMultiChannel(t *testing.T) {
	g := graph.Star(4) // center 0
	ps := newEcho(4)
	ps[1].beep, ps[1].channel = true, 0
	ps[2].beep, ps[2].channel = true, 2
	e := NewEngine(g, StoneAge(4), asPrograms(ps))
	e.Step()
	if ps[0].heard != 0b101 {
		t.Fatalf("center heard %04b, want 0101", ps[0].heard)
	}
	if ps[3].heard != 0 {
		t.Fatal("leaf heard non-neighbors")
	}
}

func TestRunUntil(t *testing.T) {
	g := graph.Cycle(5)
	ps := newEcho(5)
	e := NewEngine(g, BeepingCD(), asPrograms(ps))
	rounds, stopped := e.RunUntil(10, func() bool { return e.Round() >= 4 })
	if rounds != 4 || !stopped {
		t.Fatalf("RunUntil: rounds=%d stopped=%v", rounds, stopped)
	}
	rounds, stopped = e.RunUntil(7, func() bool { return false })
	if rounds != 7 || stopped {
		t.Fatalf("RunUntil cap: rounds=%d stopped=%v", rounds, stopped)
	}
}

func TestEveryNodeRunsEveryRound(t *testing.T) {
	g := graph.Gnp(50, 0.1, xrand.New(7))
	ps := newEcho(g.N())
	e := NewEngine(g, BeepingCD(), asPrograms(ps))
	const rounds = 20
	for i := 0; i < rounds; i++ {
		e.Step()
	}
	for u, p := range ps {
		if p.rounds != rounds {
			t.Fatalf("node %d delivered %d rounds, want %d", u, p.rounds, rounds)
		}
	}
	if e.Round() != rounds {
		t.Fatal("round counter wrong")
	}
}

func TestProgramCountValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched program count did not panic")
		}
	}()
	NewEngine(graph.Path(3), BeepingCD(), asPrograms(newEcho(2)))
}
