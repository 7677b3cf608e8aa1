package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Every probe runs one warm-up repetition that is discarded, then probeReps
// timed repetitions, and reports the median host ns per operation.
const probeReps = 7

// sink keeps probe loads observable so the compiler cannot drop them.
var sink float64

// probeSwitch times sim.Proc.Yield hand-offs on a bare two-processor
// engine: every Yield parks the processor's goroutine and resumes it
// through the serial scheduler.
func probeSwitch() (float64, error) {
	const yields = 50000
	e := sim.NewEngine(2)
	body := func(p *sim.Proc) {
		for i := 0; i < yields; i++ {
			p.Yield()
		}
	}
	var xs []float64
	for r := 0; r <= probeReps; r++ {
		t0 := time.Now()
		e.Run(body)
		if r > 0 {
			xs = append(xs, float64(time.Since(t0).Nanoseconds())/(2*yields))
		}
	}
	return median(xs), nil
}

// probeHits times inline-check hits on an SMP-Shasta node: LoadF64 and
// StoreF64 on exclusive lines, and Batch over four resident blocks. The
// warm-up stores make every line exclusive in the node first, so no timed
// access misses; the probe verifies that with the miss counter.
func probeHits() (load, store, batch float64, err error) {
	const (
		words  = 4096 // 32 KiB: 512 blocks of 64 bytes
		passes = 64   // accesses per repetition: passes * words
		calls  = 1 << 16
	)
	c, err := shasta.NewCluster(shasta.Config{Procs: 4, Clustering: 4})
	if err != nil {
		return 0, 0, 0, err
	}
	arr := c.Alloc(words*8, 64)
	at := func(i int) shasta.Addr { return arr + shasta.Addr(8*i) }
	var loads, stores, batches []float64
	var bad error
	c.Run(func(p *shasta.Proc) {
		if p.ID() != 0 {
			return
		}
		for i := 0; i < words; i++ {
			p.StoreF64(at(i), float64(i))
		}
		misses := p.System().Stats().TotalMisses()
		perOp := func(t0 time.Time, ops int) float64 {
			return float64(time.Since(t0).Nanoseconds()) / float64(ops)
		}
		for r := 0; r <= probeReps; r++ {
			t0 := time.Now()
			sum := 0.0
			for k := 0; k < passes; k++ {
				for i := 0; i < words; i++ {
					sum += p.LoadF64(at(i))
				}
			}
			if d := perOp(t0, passes*words); r > 0 {
				loads = append(loads, d)
			}
			sink += sum
		}
		for r := 0; r <= probeReps; r++ {
			t0 := time.Now()
			for k := 0; k < passes; k++ {
				for i := 0; i < words; i++ {
					p.StoreF64(at(i), float64(i+k))
				}
			}
			if d := perOp(t0, passes*words); r > 0 {
				stores = append(stores, d)
			}
		}
		refs := make([]shasta.BatchRef, 4)
		for r := 0; r <= probeReps; r++ {
			t0 := time.Now()
			sum := 0.0
			for k := 0; k < calls; k++ {
				base := (k * 4 * 8) % (words - 32)
				for j := range refs {
					refs[j] = shasta.BatchRef{Base: at(base + 8*j), Bytes: 64}
				}
				p.Batch(refs, func(b *shasta.Batch) {
					for j := range refs {
						sum += b.LoadF64(refs[j].Base)
					}
				})
			}
			if d := perOp(t0, calls*len(refs)); r > 0 {
				batches = append(batches, d)
			}
			sink += sum
		}
		if n := p.System().Stats().TotalMisses() - misses; n != 0 {
			bad = fmt.Errorf("hit probe: %d misses after warm-up, want 0", n)
		}
	})
	return median(loads), median(stores), median(batches), bad
}

// probeMisses times read-miss round trips across SMP nodes. Every timed
// load touches a block no processor of the requester's node has read, so
// each one is a miss: blocks homed on node 1 that the home still owns give
// 2-hop misses, and blocks node 2 wrote first give 3-hop misses (request to
// the home, forward to the owner, reply). The probe checks the hop-class
// miss counters and the loaded values.
func probeMisses() (miss2, miss3 float64, err error) {
	const (
		blocks = 2048 // timed loads per repetition
		block  = 64
		n      = blocks * (probeReps + 1)
		home   = 4 // first processor of node 1
		owner  = 8 // first processor of node 2
	)
	c, err := shasta.NewCluster(shasta.Config{Procs: 12, Clustering: 4, HeapBytes: 4 << 20})
	if err != nil {
		return 0, 0, err
	}
	clean := c.AllocPlaced(n*block, block, home)
	dirty := c.AllocPlaced(n*block, block, home)
	var two, three []float64
	var got2, got3 float64
	res := c.Run(func(p *shasta.Proc) {
		if p.ID() == owner {
			for i := 0; i < n; i++ {
				p.StoreF64(dirty+shasta.Addr(i*block), 1)
			}
		}
		p.Barrier()
		if p.ID() == 0 {
			timeLoads := func(base shasta.Addr, dst *[]float64, sum *float64) {
				for r := 0; r <= probeReps; r++ {
					t0 := time.Now()
					for i := r * blocks; i < (r+1)*blocks; i++ {
						*sum += p.LoadF64(base + shasta.Addr(i*block))
					}
					if r > 0 {
						*dst = append(*dst, float64(time.Since(t0).Nanoseconds())/blocks)
					}
				}
			}
			timeLoads(clean, &two, &got2)
			timeLoads(dirty, &three, &got3)
		}
		// Every processor stays in the barrier, servicing requests,
		// until processor 0 has finished.
		p.Barrier()
	})
	r2, r3 := res.Stats.MissesBy(stats.ReadMiss, 2), res.Stats.MissesBy(stats.ReadMiss, 3)
	switch {
	case r2 != n || r3 != n:
		err = fmt.Errorf("miss probe: %d 2-hop and %d 3-hop read misses, want %d each", r2, r3, n)
	case got2 != 0 || got3 != n:
		err = fmt.Errorf("miss probe: loaded sums %g and %g, want 0 and %d", got2, got3, n)
	}
	return median(two), median(three), err
}
