package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// calibration is a fixed piece of work that touches no code of the repo
// and allocates nothing once built (so the collector, whose cost grows
// with the database's live heap, stays out of it): a pointer chase
// through 4 MB, an FNV pass over 1 MB and a sort of 16 k integers. It
// moves only when the machine does.
type calibration struct {
	chase []uint32
	bytes []byte
	ints  []int
	work  [][]int // one scratch copy of ints per CPU
}

func newCalibration() *calibration {
	c := &calibration{chase: make([]uint32, 1<<20), bytes: make([]byte, 1<<20), ints: make([]int, 1<<14)}
	// One cycle through every slot in a scattered order (an odd stride
	// over a power-of-two ring), so the chase visits all 4 MB.
	for i := range c.chase {
		c.chase[i] = uint32((i + 1<<19 + 12345) % len(c.chase))
	}
	x := uint64(88172645463325252)
	for i := range c.bytes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.bytes[i] = byte(x)
		c.ints[i%len(c.ints)] = int(x >> 11)
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c.work = append(c.work, make([]int, len(c.ints)))
		c.once(c.work[i]) // first touch of every page happens here
	}
	return c
}

var sink atomic.Uint64 // keeps the kernel's results alive

func (c *calibration) once(scratch []int) {
	p := uint32(0)
	for i := 0; i < 1<<18; i++ {
		p = c.chase[p]
	}
	h := uint64(fnvOffset)
	for _, b := range c.bytes {
		h = (h ^ uint64(b)) * fnvPrime
	}
	copy(scratch, c.ints)
	sort.Ints(scratch)
	sink.Add(uint64(p) + h + uint64(scratch[0]))
}

// measure runs the kernel on every CPU at once for about d and returns
// the median time of one pass in ms: how fast the machine is right now.
func (c *calibration) measure(d time.Duration) float64 {
	var mu sync.Mutex
	var all []float64
	var wg sync.WaitGroup
	for cpu := range c.work {
		wg.Add(1)
		go func(scratch []int) {
			defer wg.Done()
			var mine []float64
			for end := time.Now().Add(d); time.Now().Before(end); {
				t0 := time.Now()
				c.once(scratch)
				mine = append(mine, float64(time.Since(t0))/1e6)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c.work[cpu])
	}
	wg.Wait()
	_, med, _ := quartiles(all)
	return med
}
