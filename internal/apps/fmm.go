package apps

import (
	"fmt"
	"math"

	"repro"
)

// FMM models SPLASH-2 FMM: a two-dimensional fast multipole N-body solver
// on a uniform grid of boxes. Each box owner forms the box's multipole
// expansion from its particles (P2M), translates the multipoles of all
// well-separated boxes into its local expansion (M2L — the communication-
// heavy phase that reads other owners' box records), and evaluates the
// local expansion plus direct near-field interactions at its particles
// (L2P + P2P).
//
// A box record is 32 float64s = 256 bytes, exactly the granularity the
// paper selects for FMM's box array in Table 2; the box array uses the home
// placement optimization as in the paper's runs.
type FMM struct {
	n       int
	g       int // boxes per dimension
	terms   int
	partPos F64Array // n * 4: x, y, charge, potential
	box     F64Array // g*g * boxWords
	boxIdx  U32Array // per-box particle lists
	boxCnt  U32Array
	boxCap  int
	partial []float64
	sum     float64
}

const (
	boxWords = 32 // 256 bytes
	xCenterX = 0
	xCenterY = 1
	xMultRe  = 2  // terms real parts
	xMultIm  = 8  // terms imaginary parts
	xLocRe   = 14 // local expansion real
	xLocIm   = 20 // local expansion imaginary
	xCount   = 26
)

// NewFMM builds the workload: 768 particles per scale step on a grid sized
// for ~12 particles per box (the paper runs 32K-64K particles).
func NewFMM(scale int) *FMM {
	if scale < 1 {
		scale = 1
	}
	n := 768 * scale
	g := 1
	for g*g*12 < n {
		g *= 2
	}
	return &FMM{n: n, g: g, terms: 6, boxCap: 96}
}

// Name implements Workload.
func (w *FMM) Name() string { return "FMM" }

// ProblemSize implements Workload.
func (w *FMM) ProblemSize() string { return fmt.Sprintf("%d particles, %dx%d boxes", w.n, w.g, w.g) }

// Setup implements Workload.
func (w *FMM) Setup(c *shasta.Cluster, variableGranularity bool) {
	boxBlock := 64
	if variableGranularity {
		boxBlock = 256 // Table 2: box array
	}
	boxes := w.g * w.g
	procs := c.Procs()
	w.partPos = AllocF64(c, w.n*4, 64)
	// Home placement: boxes homed at their owners, as the paper does for
	// FMM's main structure.
	boxBytes := int64(boxWords * 8)
	w.box = F64Array{Base: c.AllocHomed(int64(boxes)*boxWords*8, boxBlock, func(off int64) int {
		bx := int(off / boxBytes)
		if bx >= boxes {
			bx = boxes - 1
		}
		lo, hi := 0, 0
		for id := 0; id < procs; id++ {
			lo, hi = blockRange(boxes, procs, id)
			if bx >= lo && bx < hi {
				return id
			}
		}
		_ = lo
		_ = hi
		return 0
	}), Len: boxes * boxWords}
	w.boxIdx = AllocU32(c, boxes*w.boxCap, 64)
	w.boxCnt = AllocU32(c, boxes, 64)
	w.partial = make([]float64, procs)
}

func (w *FMM) pf(i, f int) shasta.Addr  { return w.partPos.At(i*4 + f) }
func (w *FMM) xf(bx, f int) shasta.Addr { return w.box.At(bx*boxWords + f) }

func (w *FMM) boxRef(bx int, store bool) shasta.BatchRef {
	return shasta.BatchRef{Base: w.box.At(bx * boxWords), Bytes: boxWords * 8, Store: store}
}

// Body implements Workload.
func (w *FMM) Body(p *shasta.Proc) {
	n, g, procs := w.n, w.g, p.NumProcs()
	boxes := g * g
	bLo, bHi := blockRange(boxes, procs, p.ID())
	pLo, pHi := blockRange(n, procs, p.ID())

	// Initialization: owners scatter particles; proc 0 bins them.
	for i := pLo; i < pHi; i++ {
		r := newRNG(uint64(5000 + i))
		p.StoreF64(w.pf(i, 0), r.rangeF(0, float64(g)))
		p.StoreF64(w.pf(i, 1), r.rangeF(0, float64(g)))
		p.StoreF64(w.pf(i, 2), r.rangeF(0.5, 1.5))
		p.StoreF64(w.pf(i, 3), 0)
	}
	p.Barrier()
	if p.ID() == 0 {
		for bx := 0; bx < boxes; bx++ {
			p.StoreU32(w.boxCnt.At(bx), 0)
			p.Batch([]shasta.BatchRef{w.boxRef(bx, true)}, func(b *shasta.Batch) {
				b.StoreF64(w.xf(bx, xCenterX), float64(bx/g)+0.5)
				b.StoreF64(w.xf(bx, xCenterY), float64(bx%g)+0.5)
				for t := 0; t < w.terms; t++ {
					b.StoreF64(w.xf(bx, xMultRe+t), 0)
					b.StoreF64(w.xf(bx, xMultIm+t), 0)
					b.StoreF64(w.xf(bx, xLocRe+t), 0)
					b.StoreF64(w.xf(bx, xLocIm+t), 0)
				}
			})
		}
		for i := 0; i < n; i++ {
			bx := w.boxOf(p.LoadF64(w.pf(i, 0)), p.LoadF64(w.pf(i, 1)))
			cnt := p.LoadU32(w.boxCnt.At(bx))
			if int(cnt) < w.boxCap {
				p.StoreU32(w.boxIdx.At(bx*w.boxCap+int(cnt)), uint32(i))
				p.StoreU32(w.boxCnt.At(bx), cnt+1)
			}
		}
	}
	p.Barrier()
	if p.ID() == 0 {
		p.ResetStats()
	}
	p.Barrier()

	// P2M: owners form multipole expansions.
	mre := make([]float64, w.terms)
	mim := make([]float64, w.terms)
	for bx := bLo; bx < bHi; bx++ {
		cnt := int(p.LoadU32(w.boxCnt.At(bx)))
		for t := range mre {
			mre[t], mim[t] = 0, 0
		}
		cx := float64(bx/g) + 0.5
		cy := float64(bx%g) + 0.5
		for a := 0; a < cnt; a++ {
			i := int(p.LoadU32(w.boxIdx.At(bx*w.boxCap + a)))
			q := p.LoadF64(w.pf(i, 2))
			dx := p.LoadF64(w.pf(i, 0)) - cx
			dy := p.LoadF64(w.pf(i, 1)) - cy
			// z^t terms of (dx + i dy).
			zr, zi := 1.0, 0.0
			for t := 0; t < w.terms; t++ {
				mre[t] += q * zr
				mim[t] += q * zi
				zr, zi = zr*dx-zi*dy, zr*dy+zi*dx
				p.Compute(24)
			}
		}
		p.Batch([]shasta.BatchRef{w.boxRef(bx, true)}, func(b *shasta.Batch) {
			for t := 0; t < w.terms; t++ {
				b.StoreF64(w.xf(bx, xMultRe+t), mre[t])
				b.StoreF64(w.xf(bx, xMultIm+t), mim[t])
			}
			b.StoreF64(w.xf(bx, xCount), float64(cnt))
		})
	}
	p.Barrier()

	// M2L: translate multipoles of well-separated boxes into local
	// expansions (reads every far box's record — heavy sharing).
	lre := make([]float64, w.terms)
	lim := make([]float64, w.terms)
	for bx := bLo; bx < bHi; bx++ {
		bi, bj := bx/g, bx%g
		for t := range lre {
			lre[t], lim[t] = 0, 0
		}
		for ox := 0; ox < boxes; ox++ {
			oi, oj := ox/g, ox%g
			di, dj := oi-bi, oj-bj
			if di >= -1 && di <= 1 && dj >= -1 && dj <= 1 {
				continue // near field handled directly
			}
			p.Batch([]shasta.BatchRef{w.boxRef(ox, false)}, func(b *shasta.Batch) {
				// Separation vector from source to target centre.
				zx, zy := float64(-di), float64(-dj)
				r2 := zx*zx + zy*zy
				for t := 0; t < w.terms; t++ {
					sre := b.LoadF64(w.xf(ox, xMultRe+t))
					sim := b.LoadF64(w.xf(ox, xMultIm+t))
					// Simplified translation kernel: scale by 1/r^(t+1)
					// with rotation by the separation direction.
					sc := 1 / math.Pow(r2, float64(t+1)/2)
					lre[t] += sc * (sre*zx - sim*zy) / math.Sqrt(r2)
					lim[t] += sc * (sre*zy + sim*zx) / math.Sqrt(r2)
					p.Compute(90)
				}
			})
		}
		p.Batch([]shasta.BatchRef{w.boxRef(bx, true)}, func(b *shasta.Batch) {
			for t := 0; t < w.terms; t++ {
				b.StoreF64(w.xf(bx, xLocRe+t), lre[t])
				b.StoreF64(w.xf(bx, xLocIm+t), lim[t])
			}
		})
	}
	p.Barrier()

	// L2P + P2P: evaluate local expansions and near-field interactions.
	for bx := bLo; bx < bHi; bx++ {
		bi, bj := bx/g, bx%g
		cnt := int(p.LoadU32(w.boxCnt.At(bx)))
		var locRe [16]float64
		var locIm [16]float64
		p.Batch([]shasta.BatchRef{w.boxRef(bx, false)}, func(b *shasta.Batch) {
			for t := 0; t < w.terms; t++ {
				locRe[t] = b.LoadF64(w.xf(bx, xLocRe+t))
				locIm[t] = b.LoadF64(w.xf(bx, xLocIm+t))
			}
		})
		for a := 0; a < cnt; a++ {
			i := int(p.LoadU32(w.boxIdx.At(bx*w.boxCap + a)))
			x := p.LoadF64(w.pf(i, 0))
			y := p.LoadF64(w.pf(i, 1))
			cx := float64(bi) + 0.5
			cy := float64(bj) + 0.5
			dx, dy := x-cx, y-cy
			pot := 0.0
			zr, zi := 1.0, 0.0
			for t := 0; t < w.terms; t++ {
				pot += locRe[t]*zr - locIm[t]*zi
				zr, zi = zr*dx-zi*dy, zr*dy+zi*dx
				p.Compute(18)
			}
			// Near field: direct interactions with neighbour boxes.
			for di := -1; di <= 1; di++ {
				for dj := -1; dj <= 1; dj++ {
					ni, nj := bi+di, bj+dj
					if ni < 0 || ni >= g || nj < 0 || nj >= g {
						continue
					}
					nb := ni*g + nj
					ncnt := int(p.LoadU32(w.boxCnt.At(nb)))
					for bidx := 0; bidx < ncnt; bidx++ {
						j := int(p.LoadU32(w.boxIdx.At(nb*w.boxCap + bidx)))
						if j == i {
							continue
						}
						jx := p.LoadF64(w.pf(j, 0))
						jy := p.LoadF64(w.pf(j, 1))
						jq := p.LoadF64(w.pf(j, 2))
						d2 := (jx-x)*(jx-x) + (jy-y)*(jy-y) + 1e-6
						pot += jq * 0.5 * math.Log(d2)
						p.Compute(90)
					}
				}
			}
			p.StoreF64(w.pf(i, 3), pot)
		}
	}
	p.Barrier()
	if p.ID() == 0 {
		p.EndMeasured()
	}

	// Verification: potential checksum over owned boxes' particles.
	var sum float64
	for bx := bLo; bx < bHi; bx++ {
		cnt := int(p.LoadU32(w.boxCnt.At(bx)))
		for a := 0; a < cnt; a++ {
			i := int(p.LoadU32(w.boxIdx.At(bx*w.boxCap + a)))
			pot := p.LoadF64(w.pf(i, 3))
			sum += pot * (1 + float64(i%41)/41)
		}
	}
	w.partial[p.ID()] = sum
	p.Barrier()
	if p.ID() == 0 {
		total := 0.0
		for _, v := range w.partial {
			total += v
		}
		w.sum = total
	}
}

func (w *FMM) boxOf(x, y float64) int {
	g := w.g
	bi, bj := int(x), int(y)
	if bi < 0 {
		bi = 0
	}
	if bi >= g {
		bi = g - 1
	}
	if bj < 0 {
		bj = 0
	}
	if bj >= g {
		bj = g - 1
	}
	return bi*g + bj
}

// Checksum implements Workload.
func (w *FMM) Checksum() float64 { return w.sum }
