package fault

import "testing"

// judgeN runs n frames of the given size through a freshly built spec and
// returns the verdicts.
func judgeN(t *testing.T, spec Spec, n int, size int) []Verdict {
	t.Helper()
	m, err := spec.build(NewRand(1).Split("test"))
	if err != nil {
		t.Fatalf("build %q: %v", spec.Kind, err)
	}
	payload := make([]byte, size)
	out := make([]Verdict, n)
	for i := range out {
		m.Judge(payload, &out[i])
	}
	return out
}

func countDrops(vs []Verdict) int {
	n := 0
	for _, v := range vs {
		if v.Drop {
			n++
		}
	}
	return n
}

func TestBernoulliRate(t *testing.T) {
	drops := countDrops(judgeN(t, Bernoulli(0.1), 20000, 100))
	if drops < 1700 || drops > 2300 {
		t.Errorf("bernoulli(0.1) dropped %d of 20000, want ~2000", drops)
	}
}

func TestGilbertElliottBursts(t *testing.T) {
	// An average 2% GE channel must drop in bursts: the conditional
	// probability that the frame after a drop is also dropped must be far
	// above the marginal rate.
	vs := judgeN(t, BurstyLoss(0.02), 100000, 100)
	drops := countDrops(vs)
	if drops < 1200 || drops > 2800 {
		t.Fatalf("bursty(0.02) dropped %d of 100000, want ~2000", drops)
	}
	pairs, after := 0, 0
	for i := 1; i < len(vs); i++ {
		if vs[i-1].Drop {
			pairs++
			if vs[i].Drop {
				after++
			}
		}
	}
	cond := float64(after) / float64(pairs)
	if cond < 0.08 {
		t.Errorf("P(drop|previous drop) = %.3f, want >> 0.02 (bursty)", cond)
	}
}

func TestDropWhenTimes(t *testing.T) {
	hit := 0
	spec := DropWhen(func(p []byte) bool { hit++; return true }, 3)
	vs := judgeN(t, spec, 10, 10)
	if got := countDrops(vs); got != 3 {
		t.Errorf("drop-when(times=3) dropped %d of 10", got)
	}
}

func TestCorruptFlipsOneBit(t *testing.T) {
	vs := judgeN(t, Corrupt(1.0), 100, 10)
	for i, v := range vs {
		if len(v.FlipBits) != 1 {
			t.Fatalf("frame %d got %d flips, want 1", i, len(v.FlipBits))
		}
		if bit := v.FlipBits[0]; bit < 0 || bit >= 80 {
			t.Fatalf("frame %d flip bit %d outside payload", i, bit)
		}
	}
}

func TestPartitionToggle(t *testing.T) {
	m, err := PartitionGate("split", false).build(NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	p := m.(*Partition)
	var v Verdict
	p.Judge(nil, &v)
	if v.Drop {
		t.Error("healed partition dropped a frame")
	}
	p.SetActive(true)
	v = Verdict{}
	p.Judge(nil, &v)
	if !v.Drop {
		t.Error("active partition passed a frame")
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := (Spec{Kind: KindPartition}).build(NewRand(1)); err == nil {
		t.Error("nameless partition built")
	}
	if _, err := (Spec{Kind: "bogus"}).build(NewRand(1)); err == nil {
		t.Error("unknown kind built")
	}
	imp := Impairment{Link: LinkServerLAN, To: RoleSecondary, Models: []Spec{Corrupt(1)}}
	if err := imp.validate(); err == nil {
		t.Error("receive-side corruption accepted")
	}
	imp = Impairment{Link: LinkServerLAN, To: RoleSecondary, Models: []Spec{Bernoulli(0.1)}}
	if err := imp.validate(); err != nil {
		t.Errorf("receive-side loss rejected: %v", err)
	}
}
