package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"syscall"
	"time"
)

// The speed probe is a fixed job that uses none of the repository's code:
// sorting, map updates and floating-point dot products on one goroutine,
// then scattered reads and writes over a buffer larger than the CPU caches.
// An untraced run times it once after every set-up and after every block of
// ops, outside the timings.
//
// On a shared host the machine's speed moves by up to 2× within minutes,
// with the other tenants' load on the host's cores, caches and memory, and
// every timing of a run moves with it. The probe moves with it too, while a
// change to the program leaves the probe alone. So a run reports its
// timings scaled to a machine on which the probe takes probeRefMS:
// time × (probeRefMS / the run's median probe time)^probeExp. The raw
// figures and the median probe time go to stderr.
//
// The single-goroutine compute part tracks the in-process workloads; the
// memory part tracks the serving ones, which move more data. A probe on
// both CPUs at once tracked them worse: it measures the Go scheduler and
// whatever the servers' idle goroutines do.
const probeRefMS = 16.0

// probeExp is how the workloads' times move with the probe's on a 2-vCPU
// VM. When the machine's speed changed, every workload's times moved as
// the probe's time to the power 1.4–2.0 (log-log fits: flow 1.6,
// serve_yield 1.5, serve_prepare_insert 1.4, sharded 1.6–2.0): the probe
// reacts less than the workloads, which keep both CPUs busy. Scaling by
// the plain ratio left a quarter of a 2× change in the figures.
const probeExp = 1.5

// probeBufBytes is the size of the memory part's buffer. It lives outside
// the Go heap, so it does not change when the collector runs, and it is
// resident for the whole run, so peak_rss_mb subtracts it exactly.
const probeBufBytes = 64 << 20

type prober struct {
	buf  []byte
	sink float64
}

// newProber maps the probe's buffer and touches every page of it, so the
// buffer is resident before the run's first set-up.
func newProber() (*prober, error) {
	buf, err := syscall.Mmap(-1, 0, probeBufBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe buffer: %w", err)
	}
	for i := range buf {
		buf[i] = byte(i)
	}
	return &prober{buf: buf}, nil
}

func (p *prober) close() {
	syscall.Munmap(p.buf)
}

// run runs the fixed job and returns its time in ms.
func (p *prober) run() float64 {
	t0 := time.Now()
	r := rand.New(rand.NewPCG(1, 7))
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	sort.Float64s(xs)
	m := make(map[int]int, 1024)
	for i := 0; i < 60000; i++ {
		m[r.IntN(20000)] += i
	}
	a, b := make([]float64, 32768), make([]float64, 32768)
	for i := range a {
		a[i], b[i] = r.Float64(), r.Float64()
	}
	var s0, s1, s2, s3 float64
	for rep := 0; rep < 40; rep++ {
		for i := 0; i < len(a); i += 4 {
			s0 += a[i] * b[i]
			s1 += a[i+1] * b[i+1]
			s2 += a[i+2] * b[i+2]
			s3 += a[i+3] * b[i+3]
		}
	}
	// 1048583 is a prime a little over 1 MiB, so every access lands on
	// another cache line and page of the buffer.
	var acc byte
	for i, idx := 0, 0; i < 400000; i++ {
		idx = (idx + 1048583) & (probeBufBytes - 1)
		acc += p.buf[idx]
		p.buf[idx] = acc
	}
	p.sink += s0 + s1 + s2 + s3 + xs[len(xs)/2] + float64(len(m)) + float64(acc)
	return ms(time.Since(t0))
}
