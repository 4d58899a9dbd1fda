package bench

import (
	"testing"
)

// fastCfg shrinks every experiment while preserving shape.
var fastCfg = Config{Seed: 1, Scale: 0.15}

func TestExperimentsRegistryComplete(t *testing.T) {
	want := []string{
		"fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6", "fig7a", "fig7b",
		"fig8a", "fig8b", "fig9", "fig10a", "fig10b", "fig11a", "fig11b",
		"fig12", "ablrss", "ablpin", "ablcoal", "ext3tier", "extipc",
		"fault_loss",
	}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Fatalf("experiment %d = %q, want %q", i, got[i].ID, id)
		}
		if _, ok := Find(id); !ok {
			t.Fatalf("Find(%q) failed", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find accepted an unknown id")
	}
	// The table is built once: Experiments hands out a copy, and Find
	// scans the table without allocating (a job calls it per runner).
	got[0].ID = "changed"
	if Experiments()[0].ID != "fig3a" {
		t.Fatal("changing Experiments' result changed the registry")
	}
	if n := testing.AllocsPerRun(10, func() { Find("fault_loss") }); n != 0 {
		t.Fatalf("Find allocates %v times per call", n)
	}
}

func TestFig3aShape(t *testing.T) {
	r := Fig3a(fastCfg)
	s := r.Series
	if len(s.Points) != 6 {
		t.Fatalf("rows = %d", len(s.Points))
	}
	// Bandwidth parity: non-I/OAT and I/OAT within 3% at every port count.
	non := s.Column("non-I/OAT Mbps")
	acc := s.Column("I/OAT Mbps")
	for i := range non {
		if acc[i] < non[i]*0.97 {
			t.Fatalf("I/OAT bandwidth regressed at row %d: %v vs %v", i, acc[i], non[i])
		}
	}
	// Bandwidth grows with ports.
	if non[5] < 5*non[0] {
		t.Fatalf("bandwidth not scaling with ports: %v", non)
	}
	// The headline: substantial relative CPU benefit at 6 ports.
	rel := s.Column("rel CPU benefit%")
	if rel[5] < 10 {
		t.Fatalf("relative CPU benefit at 6 ports = %v%%, want >10%%", rel[5])
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4(fastCfg)
	cpuNon := r.Series.Column("non-I/OAT CPU%")
	cpuAcc := r.Series.Column("I/OAT CPU%")
	last := len(cpuNon) - 1
	if cpuAcc[last] >= cpuNon[last] {
		t.Fatalf("I/OAT CPU %v not below non-I/OAT %v at 12 threads",
			cpuAcc[last], cpuNon[last])
	}
	// CPU grows with thread count.
	if cpuNon[last] <= cpuNon[0] {
		t.Fatal("CPU did not grow with threads")
	}
}

func TestFig5Shape(t *testing.T) {
	r := Fig5a(fastCfg)
	non := r.Series.Column("non-I/OAT Mbps")
	// Bandwidth rises from Case 1 to Case 5 (cumulative optimizations).
	if non[4] <= non[0] {
		t.Fatalf("optimizations did not raise bandwidth: %v", non)
	}
}

func TestFig6Shape(t *testing.T) {
	r := Fig6(fastCfg)
	s := r.Series
	cache := s.Column("copy-cache us")
	nocache := s.Column("copy-nocache us")
	dma := s.Column("DMA-copy us")
	overlap := s.Column("overlap%")
	last := len(cache) - 1 // 64K row
	if cache[last] >= nocache[last] {
		t.Fatal("cached copy not faster than uncached")
	}
	if dma[last] >= nocache[last] {
		t.Fatal("DMA not beating uncached CPU copy at 64K")
	}
	if dma[0] <= nocache[0] {
		t.Fatal("DMA should lose to CPU copy at 1K (startup dominates)")
	}
	if overlap[last] < 85 {
		t.Fatalf("overlap at 64K = %v%%, want ~91%%", overlap[last])
	}
	for i := 1; i < len(overlap); i++ {
		if overlap[i] <= overlap[i-1] {
			t.Fatalf("overlap not increasing with size: %v", overlap)
		}
	}
}

func TestFig7bShape(t *testing.T) {
	r := Fig7b(fastCfg)
	split := r.Series.Column("Split tput benefit%")
	for i, v := range split {
		if v < 5 {
			t.Fatalf("split-header benefit row %d = %v%%, want >5%%", i, v)
		}
	}
}

func TestFig8aShape(t *testing.T) {
	r := Fig8a(fastCfg)
	non := r.Series.Column("non-I/OAT TPS")
	acc := r.Series.Column("I/OAT TPS")
	for i := range non {
		// 3% tolerance: short scaled windows leave quantization noise.
		if acc[i] < non[i]*0.97 {
			t.Fatalf("I/OAT TPS regressed at row %d: %v vs %v", i, acc[i], non[i])
		}
	}
	// TPS decreases as file size grows.
	if non[0] <= non[len(non)-1] {
		t.Fatalf("TPS should fall with file size: %v", non)
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9(fastCfg)
	s := r.Series
	non := s.Column("non-I/OAT TPS")
	acc := s.Column("I/OAT TPS")
	last := len(non) - 1
	// At 256 threads (saturation) I/OAT sustains clearly more TPS.
	if acc[last] < non[last]*1.05 {
		t.Fatalf("I/OAT TPS at 256 threads = %v, non = %v — no scalability win",
			acc[last], non[last])
	}
}

func TestFig10aShape(t *testing.T) {
	r := Fig10a(fastCfg)
	s := r.Series
	non := s.Column("non-I/OAT MB/s")
	rel := s.Column("rel CPU benefit%")
	if non[5] <= non[0] {
		t.Fatalf("read bandwidth not scaling with clients: %v", non)
	}
	if rel[5] < 5 {
		t.Fatalf("client CPU benefit = %v%%, want >5%%", rel[5])
	}
}

func TestFig11aShape(t *testing.T) {
	r := Fig11a(fastCfg)
	rel := r.Series.Column("rel CPU benefit%")
	if rel[5] < 3 {
		t.Fatalf("server CPU benefit = %v%%, want >3%%", rel[5])
	}
}

func TestAblRSSShape(t *testing.T) {
	r := AblRSS(fastCfg)
	s := r.Series
	single := s.Column("I/OAT Mbps")
	multi := s.Column("I/OAT-FULL Mbps")
	last := len(single) - 1
	if multi[last] < single[last]*1.5 {
		t.Fatalf("RSS at 6 ports: %v vs %v — no scaling win", multi[last], single[last])
	}
}

func TestAblPinShape(t *testing.T) {
	r := AblPin(fastCfg)
	wins := r.Series.Column("DMA wins")
	if wins[0] != 1 {
		t.Fatal("DMA must win at zero pin cost")
	}
	if wins[len(wins)-1] != 0 {
		t.Fatal("DMA must lose at extreme pin cost (paper §7)")
	}
	// Monotone: once it loses, it stays lost.
	lost := false
	for _, w := range wins {
		if w == 0 {
			lost = true
		} else if lost {
			t.Fatalf("non-monotone crossover: %v", wins)
		}
	}
}

func TestAblCoalShape(t *testing.T) {
	r := AblCoal(fastCfg)
	heavy := r.Series.Column("heavy Mbps")
	if heavy[len(heavy)-1] <= heavy[0]*1.2 {
		t.Fatalf("coalescing did not help heavy load: %v", heavy)
	}
}

func TestResultString(t *testing.T) {
	r := Fig6(fastCfg)
	out := r.String()
	if len(out) == 0 || out[0] != '=' {
		t.Fatalf("bad render: %q", out[:min(40, len(out))])
	}
}

func TestExt3TierShape(t *testing.T) {
	r := Ext3Tier(fastCfg)
	s := r.Series
	non := s.Column("non-I/OAT TPS")
	acc := s.Column("I/OAT TPS")
	db := s.Column("db CPU%")
	// More queries per request -> fewer transactions, busier database.
	if non[len(non)-1] >= non[0] {
		t.Fatalf("TPS should fall with query count: %v", non)
	}
	if db[len(db)-1] <= db[0] {
		t.Fatalf("DB CPU should rise with query count: %v", db)
	}
	for i := range non {
		if acc[i] < non[i]*0.97 {
			t.Fatalf("I/OAT TPS regressed at row %d: %v vs %v", i, acc[i], non[i])
		}
	}
}

func TestExtIPCShape(t *testing.T) {
	r := ExtIPC(fastCfg)
	s := r.Series
	cpuUtil := s.Column("CPU-copy cpu%")
	engUtil := s.Column("engine cpu%")
	for i := range cpuUtil {
		if engUtil[i] >= cpuUtil[i] {
			t.Fatalf("engine IPC row %d CPU %v not below memcpy %v",
				i, engUtil[i], cpuUtil[i])
		}
	}
}
