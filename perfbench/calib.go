package main

import (
	"hash/crc32"
	"slices"
	"strconv"
	"sync"
	"time"
)

// refKernelS is the calibration kernel's usual time on the reference
// host, a shared 2-vCPU x86-64 VM. Every reported time is scaled to
// it: time × refKernelS / (the kernel's median time in the same run).
const refKernelS = 0.015

// calibrate runs the calibration kernel on each of workers goroutines
// at once and returns the wall seconds it took.
//
// The benchmark's host is shared, and its speed for ordinary Go code
// drifts by up to 2.7x within minutes while a pure ALU loop stays
// steady. The kernel does the same kind of work the program does
// (sorting, hashing, map updates, number formatting, branchy loops over
// a few MiB) so it slows down when the program does. It allocates
// nothing after its first call, so the program's heap size cannot
// change its cost through the garbage collector, and it shares no code
// with the program, so a change to the program cannot move it.
func calibrate(workers int) float64 {
	for len(kernels) < workers {
		kernels = append(kernels, &kernel{})
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernels[w].run()
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// kernel holds one goroutine's preallocated working set.
type kernel struct {
	src, buf []float64
	keys     []uint64
	m        map[uint64]uint64
	text     []byte
	sink     uint64
}

// kernels holds one working set per calibrating goroutine, kept across
// calls so that only the first call allocates.
var kernels []*kernel

func (k *kernel) run() {
	const n = 1 << 14
	if k.src == nil {
		r := newRNG(42)
		k.src = make([]float64, n)
		k.buf = make([]float64, n)
		k.keys = make([]uint64, n)
		for i := range k.src {
			k.src[i] = float64(r.next()%1_000_000) / 7
			k.keys[i] = r.next() % (n / 2)
		}
		k.m = make(map[uint64]uint64, n)
		k.text = make([]byte, 0, 16*n)
	}
	for round := 0; round < 4; round++ {
		copy(k.buf, k.src)
		slices.Sort(k.buf)
		clear(k.m)
		for i, key := range k.keys {
			k.m[key] += uint64(i + round)
		}
		k.text = k.text[:0]
		for i := 0; i < n; i += 4 {
			k.text = strconv.AppendFloat(k.text, k.buf[i], 'g', -1, 64)
			k.text = strconv.AppendUint(k.text, k.m[k.keys[i]], 10)
			k.text = append(k.text, ',')
		}
		if _, ok := slices.BinarySearch(k.buf, k.src[round]); ok {
			k.sink++
		}
		k.sink += uint64(crc32.ChecksumIEEE(k.text)) + uint64(len(k.m))
	}
}
