package pipeline

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"srvsim/internal/compiler"
	"srvsim/internal/mem"
	"srvsim/internal/obsv"
	"srvsim/internal/workloads"
)

// Scenario digest suite: every observable of a run — Stats, controller
// counters, the DumpStats rendering, architectural state, memory image,
// sampler rows and trace events — is pinned per scenario across the whole
// workload sweep plus interrupt / fault / wedge / budget / ablation
// variants and randomised fuzz loops. The checkpoint suite
// (checkpoint_test.go) reuses the scenario list.

type equivScenario struct {
	name  string
	build func() (*Pipeline, *mem.Image)
}

// buildWorkload instantiates one workload loop and compiles it.
func buildWorkload(bench string, loopIdx int, mode compiler.Mode) (Config, *compiler.Compiled, *mem.Image) {
	w, ok := workloads.ByName(bench)
	if !ok {
		panic(fmt.Sprintf("unknown benchmark %q", bench))
	}
	l, im := w.Loops[loopIdx].Instantiate(7)
	c, err := compiler.Compile(l, im, mode)
	if err != nil {
		panic(fmt.Sprintf("compile %s/%d: %v", bench, loopIdx, err))
	}
	return DefaultConfig(), c, im
}

func modeName(m compiler.Mode) string {
	switch m {
	case compiler.ModeScalar:
		return "scalar"
	case compiler.ModeSRV:
		return "srv"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// equivScenarios enumerates the pinned behaviours.
func equivScenarios() []equivScenario {
	var scns []equivScenario
	add := func(name string, build func() (*Pipeline, *mem.Image)) {
		scns = append(scns, equivScenario{name: name, build: build})
	}

	// 1. Full workload sweep, scalar and SRV.
	for _, w := range workloads.All() {
		for li := range w.Loops {
			for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
				w, li, mode := w, li, mode
				add(fmt.Sprintf("%s/%d/%s", w.Name, li, modeName(mode)), func() (*Pipeline, *mem.Image) {
					cfg, c, im := buildWorkload(w.Name, li, mode)
					return New(cfg, c.Prog, im), im
				})
			}
		}
	}

	// 2. Interrupts at several timings: mid-region delivery, §III-D resume
	// freezes, and the post-drain redelivery path.
	for _, iv := range []struct{ at, dur int64 }{{120, 40}, {1000, 100}, {7777, 64}} {
		iv := iv
		for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
			mode := mode
			add(fmt.Sprintf("intr/%d+%d/%s", iv.at, iv.dur, modeName(mode)), func() (*Pipeline, *mem.Image) {
				cfg, c, im := buildWorkload("is", 0, mode)
				p := New(cfg, c.Prog, im)
				p.ScheduleInterrupt(iv.at, iv.dur)
				return p, im
			})
		}
	}

	// 3. Observability attached: the sampler boundary and trace-counter
	// cadence.
	for _, every := range []int64{1, 7, 64} {
		every := every
		add(fmt.Sprintf("sample/%d", every), func() (*Pipeline, *mem.Image) {
			cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
			p := New(cfg, c.Prog, im)
			p.EnableSampling(every)
			return p, im
		})
	}
	add("trace", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		p := New(cfg, c.Prog, im)
		p.AttachTracer(obsv.NewTracer())
		p.EnableSampling(16)
		return p, im
	})
	add("timeline", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		p := New(cfg, c.Prog, im)
		p.EnableTimeline()
		return p, im
	})
	add("paranoid", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		p := New(cfg, c.Prog, im)
		p.EnableParanoid()
		return p, im
	})

	// 4. Abnormal exits: the cycle-budget and watchdog paths, with their
	// error cycle and machine snapshot.
	add("budget", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.MaxCycles = 2500
		return New(cfg, c.Prog, im), im
	})
	add("wedge", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.WatchdogCycles = 500
		p := New(cfg, c.Prog, im)
		p.InjectWedge(2000)
		return p, im
	})
	add("wedge-sampled", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.WatchdogCycles = 300
		p := New(cfg, c.Prog, im)
		p.InjectWedge(1500)
		p.EnableSampling(64)
		return p, im
	})

	// 5. Ablations toggle distinct issue/ready/replay paths.
	type abl struct {
		name string
		mut  func(*Config)
	}
	for _, a := range []abl{
		{"relaxed-barrier", func(c *Config) { c.RelaxedBarrier = true }},
		{"conservative-mem", func(c *Config) { c.ConservativeMem = true }},
		{"inorder", func(c *Config) { c.InOrder = true }},
		{"prefetch", func(c *Config) { c.Prefetch = true }},
		{"no-selective-replay", func(c *Config) { c.NoSelectiveReplay = true }},
	} {
		a := a
		add("abl/"+a.name, func() (*Pipeline, *mem.Image) {
			cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
			a.mut(&cfg)
			return New(cfg, c.Prog, im), im
		})
	}

	// 6. Tight structural budgets force dispatch stalls and the LSQ-overflow
	// sequential fallback.
	add("smallcfg", func() (*Pipeline, *mem.Image) {
		cfg, c, im := buildWorkload("is", 0, compiler.ModeSRV)
		cfg.Width = 4
		cfg.ROBSize = 24
		cfg.IQSize = 8
		cfg.LSQSize = 8
		return New(cfg, c.Prog, im), im
	})

	// 7. Precise faults: oldest-lane immediate delivery and younger-lane
	// deferral to replay, plus a fault racing an interrupt.
	buildFault := func(lane int) (*Pipeline, *mem.Image, uint64) {
		im := mem.NewImage()
		aBase := im.Alloc(64*4, 64)
		xBase := im.Alloc(16*4, 64)
		dBase := im.Alloc(16*4, 64)
		for i := 0; i < 64; i++ {
			im.WriteInt(aBase+uint64(i*4), 4, int64(i*7))
		}
		for i := 0; i < 16; i++ {
			im.WriteInt(xBase+uint64(i*4), 4, int64(i*2))
		}
		p := New(DefaultConfig(), faultProg(aBase, xBase, dBase), im)
		p.FaultAddrs = map[uint64]bool{aBase + uint64(lane*2*4): true}
		return p, im, aBase
	}
	add("fault/lane0", func() (*Pipeline, *mem.Image) {
		p, im, _ := buildFault(0)
		return p, im
	})
	add("fault/lane5", func() (*Pipeline, *mem.Image) {
		p, im, _ := buildFault(5)
		return p, im
	})
	add("fault/lane5+intr", func() (*Pipeline, *mem.Image) {
		p, im, _ := buildFault(5)
		p.ScheduleInterrupt(30, 25)
		return p, im
	})

	// 8. Randomised loops (the srvfuzz generator), some with interrupts:
	// shapes no hand-written workload covers.
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		for _, mode := range []compiler.Mode{compiler.ModeScalar, compiler.ModeSRV} {
			mode := mode
			add(fmt.Sprintf("rand/%d/%s", seed, modeName(mode)), func() (*Pipeline, *mem.Image) {
				rng := rand.New(rand.NewSource(seed))
				l := compiler.RandomLoop(rng)
				if seed%2 == 0 {
					l = compiler.RandomAffineLoop(rng)
				}
				im := mem.NewImage()
				compiler.SeedRandomLoop(l, im, rng)
				c, err := compiler.Compile(l, im, mode)
				if err != nil {
					// Some random loops reject SRV (proven dependence);
					// fall back to scalar so the scenario stays deterministic.
					c, err = compiler.Compile(l, im, compiler.ModeScalar)
					if err != nil {
						panic(fmt.Sprintf("rand/%d compile: %v", seed, err))
					}
				}
				cfg := DefaultConfig()
				cfg.MaxCycles = 50_000_000
				p := New(cfg, c.Prog, im)
				if seed%3 == 0 {
					p.ScheduleInterrupt(10+seed*37, 20+seed*5)
				}
				return p, im
			})
		}
	}

	return scns
}

func fnvHash(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// equivDigest runs the pipeline and renders everything observable about the
// run as text: exit status, every counter, the DumpStats rendering, hashed
// architectural state, and hashed sampler / tracer output.
func equivDigest(p *Pipeline) string {
	return runDigest(p, p.Run())
}

// runDigest renders the digest for a pipeline whose run already returned err
// (the checkpoint suite runs restored pipelines itself before digesting).
func runDigest(p *Pipeline, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err: %v\n", err)
	if de, ok := err.(*DeadlockError); ok {
		fmt.Fprintf(&b, "deadlock: cycle=%d window=%d pc=%d\nsnapshot:\n%s", de.Cycle, de.Window, de.PC, de.Snapshot)
	}
	fmt.Fprintf(&b, "stats: %+v\n", p.Stats)
	fmt.Fprintf(&b, "ctrl: %+v\n", p.Ctrl.Stats)
	fmt.Fprintf(&b, "arch: %s\n", fnvHash(fmt.Sprintf("%v %v %v", p.S, p.Vr, p.Pr)))
	if p.sampler != nil {
		var csv bytes.Buffer
		if err := p.sampler.WriteCSV(&csv); err != nil {
			fmt.Fprintf(&b, "sampler: error %v\n", err)
		} else {
			fmt.Fprintf(&b, "sampler: rows=%d hash=%s\n", p.sampler.Len(), fnvHash(csv.String()))
		}
	}
	if p.tracer != nil {
		var js bytes.Buffer
		if err := p.tracer.WriteJSON(&js); err != nil {
			fmt.Fprintf(&b, "tracer: error %v\n", err)
		} else {
			fmt.Fprintf(&b, "tracer: events=%d dropped=%d hash=%s\n", p.tracer.Len(), p.tracer.Dropped(), fnvHash(js.String()))
		}
	}
	if p.recordTimeline {
		fmt.Fprintf(&b, "timeline: entries=%d dropped=%d hash=%s\n",
			len(p.Timeline()), p.TimelineDropped(), fnvHash(fmt.Sprintf("%+v", p.Timeline())))
	}
	b.WriteString(p.DumpStats())
	return b.String()
}

// digestsGolden pins every scenario of equivScenarios. Each line holds the
// scenario name, its cycles and committed counts, the fnv hash of the full
// runDigest text, and the fnv hash of the final memory image.
const digestsGolden = "testdata/scenario_digests.golden"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+digestsGolden)

// imageHash hashes the non-zero pages of a memory image in address order
// (zero pages read as absent, as in mem.Image.Equal).
func imageHash(im *mem.Image) string {
	h := fnv.New64a()
	var pn [8]byte
	for _, pg := range im.State().Pages {
		zero := true
		for _, b := range pg.Data {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		binary.LittleEndian.PutUint64(pn[:], pg.PN)
		h.Write(pn[:])
		h.Write(pg.Data)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCrossCoreEquivalence runs every scenario and requires its digest line
// to match the committed golden file, so any change to simulated behaviour —
// counters, DumpStats, architectural state, sampler rows, trace events,
// error text or memory — shows up as a named scenario diff. (The name dates
// from when the suite compared two simulator cores; it is kept so the
// scenario test IDs stay stable.) go test -update-golden rewrites the file
// after an intentional behaviour change. With SRVSIM_EQUIV_GOLDEN set it
// also writes the full digest text to the named file for out-of-tree
// diffing.
func TestCrossCoreEquivalence(t *testing.T) {
	full := os.Getenv("SRVSIM_EQUIV_GOLDEN")
	var fullBuf, lines bytes.Buffer
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(digestsGolden)
		if err != nil {
			t.Fatalf("%v (run go test -run TestCrossCoreEquivalence -update-golden to create it)", err)
		}
		for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			want[strings.Fields(ln)[0]] = ln
		}
	}
	scns := equivScenarios()
	ran := 0
	for _, sc := range scns {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			p, im := sc.build()
			d := equivDigest(p)
			got := fmt.Sprintf("%s cycles=%d committed=%d digest=%s mem=%s",
				sc.name, p.Stats.Cycles, p.Stats.Committed, fnvHash(d), imageHash(im))
			fmt.Fprintln(&lines, got)
			ran++
			if full != "" {
				fmt.Fprintf(&fullBuf, "=== %s\n%s\n", sc.name, d)
			}
			if !*updateGolden && want[sc.name] != got {
				t.Errorf("digest moved:\n got: %s\nwant: %s\nfull digest:\n%s", got, want[sc.name], d)
			}
		})
	}
	if *updateGolden {
		if ran != len(scns) {
			t.Fatalf("ran %d of %d scenarios: rewrite %s from a full run only", ran, len(scns), digestsGolden)
		}
		if err := os.WriteFile(digestsGolden, lines.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("wrote %s", digestsGolden)
	}
	if full != "" {
		if err := os.WriteFile(full, fullBuf.Bytes(), 0o644); err != nil {
			t.Fatalf("write full digests: %v", err)
		}
		t.Logf("wrote full digests to %s", full)
	}
}
