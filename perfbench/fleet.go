package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
)

// The fleet is N distinct WCC modules generated from the workload seed. Each
// folds its request bytes into an i32 hash through a seeded sequence of
// integer steps and replies with the four little-endian hash bytes. The
// step list is kept alongside the source so a Go mirror computes the
// expected reply for every request.

const (
	fleetSize    = 1000
	fleetRounds  = 2
	fleetMaxBody = 48
	fleetMinBody = 16
	fleetHeap    = 1024
	// Every module folds with the same number of steps, so which modules
	// the seed makes hot does not change the fleet's mean cost.
	fleetSteps = 5
)

// fleetStep is one hash step: h = op(h, b, k, s) for request byte b.
type fleetStep struct {
	op int
	k  int32
	s  uint
}

type fleetModule struct {
	name   string
	seed   int32
	steps  []fleetStep
	source string
}

func genFleet(rng *rand.Rand, n int) []fleetModule {
	fleet := make([]fleetModule, n)
	for i := range fleet {
		m := &fleet[i]
		m.name = fmt.Sprintf("f%04d", i)
		m.seed = rng.Int31()
		for j := 0; j < fleetSteps; j++ {
			m.steps = append(m.steps, fleetStep{
				op: rng.Intn(5),
				k:  rng.Int31() | 1,
				s:  uint(1 + rng.Intn(23)),
			})
		}
		m.source = m.wcc()
	}
	return fleet
}

func (m *fleetModule) wcc() string {
	var b strings.Builder
	fmt.Fprintf(&b, `static u8 buf[%d];
export i32 main() {
	i32 n = sys_read(buf, %d);
	i32 h = %d;
	for (i32 r = 0; r < %d; r = r + 1) {
		for (i32 i = 0; i < n; i = i + 1) {
			i32 b = buf[i];
`, fleetMaxBody, fleetMaxBody, m.seed, fleetRounds)
	for _, st := range m.steps {
		switch st.op {
		case 0:
			fmt.Fprintf(&b, "\t\t\th = h + b * %d;\n", st.k)
		case 1:
			fmt.Fprintf(&b, "\t\t\th = h ^ (h >> %d);\n", st.s)
		case 2:
			fmt.Fprintf(&b, "\t\t\th = h * %d;\n", st.k)
		case 3:
			fmt.Fprintf(&b, "\t\t\th = h ^ (b << %d);\n", st.s)
		case 4:
			fmt.Fprintf(&b, "\t\t\th = h - (h << %d);\n", st.s)
		}
	}
	b.WriteString(`		}
	}
	i32* o = (i32*) buf;
	o[0] = h;
	sys_write(buf, 4);
	return 0;
}
`)
	return b.String()
}

// mirror computes the module's reply in Go: the oracle for every fleet
// request.
func (m *fleetModule) mirror(body []byte) []byte {
	if len(body) > fleetMaxBody {
		body = body[:fleetMaxBody]
	}
	h := m.seed
	for r := 0; r < fleetRounds; r++ {
		for _, c := range body {
			b := int32(c)
			for _, st := range m.steps {
				switch st.op {
				case 0:
					h = h + b*st.k
				case 1:
					h = h ^ (h >> st.s)
				case 2:
					h = h * st.k
				case 3:
					h = h ^ (b << st.s)
				case 4:
					h = h - (h << st.s)
				}
			}
		}
	}
	return binary.LittleEndian.AppendUint32(nil, uint32(h))
}
