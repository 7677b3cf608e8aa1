package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: other tenants' load swings the
// simulator's speed by up to a factor of two within minutes, so raw wall
// clock medians of one-minute runs spread by about a fifth of their value
// from run to run. A pointer chase over memory far larger than the last-level
// cache slows with the simulator when the host is loaded, and it runs only
// the benchmark's own code, so no change to the repository can move it.
// Every end-to-end host timing is therefore multiplied by a factor taken
// from a chase just before it, which converts it to seconds at the
// reference host speed. README.md gives the measurements behind this choice.

// calibRefSeconds is the chase's time at the reference host speed, close to
// its median on the 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest the
// bounds were set on.
const calibRefSeconds = 0.25

// elasticity is how far the simulator's time follows the chase's: in
// five-minute series of LU and Water-Nsq iterations, the log of the run
// time rose 0.44 and 0.62 per unit rise in the log of the chase time taken
// next to it. Scaling by the full ratio made some sets of runs drift apart
// when the chase sped up and the simulator did not.
const elasticity = 0.5

const (
	chaseBytes = 256 << 20 // well past a 105 MiB last-level cache
	chaseSteps = 1 << 20
)

// calibrator is the pointer chase. Its memory is mapped outside the Go heap
// so that heap_mb and the collector's pacing never see it.
type calibrator struct {
	mem  []byte
	next []uint32
	at   uint32
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, chaseBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration memory: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), len(mem)/4)
	// x -> a*x + c mod 2^k with c odd and a = 1 mod 4 has full period, so
	// the chase is one cycle through every entry, in an order no hardware
	// prefetcher follows.
	mask := uint32(len(next) - 1)
	for i := range next {
		next[i] = (1664525*uint32(i) + 1013904223) & mask
	}
	return &calibrator{mem: mem, next: next}, nil
}

// scale times one chase of chaseSteps dependent loads and returns
// (calibRefSeconds / its time)^elasticity: the factor that converts a host
// time measured now to the reference speed. Each chase continues where the last
// one stopped, so it always touches memory unused for minutes, whatever the
// workload left in the caches.
func (c *calibrator) scale() float64 {
	t0 := time.Now()
	x := c.at
	for i := 0; i < chaseSteps; i++ {
		x = c.next[x]
	}
	c.at = x
	return math.Pow(calibRefSeconds/time.Since(t0).Seconds(), elasticity)
}

func (c *calibrator) close() error {
	return syscall.Munmap(c.mem)
}
