package main

import (
	"fmt"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a 2-vCPU VM on a shared host. As other tenants load
// the host, the program's speed drifts by ±15% over seconds to minutes, so
// ten runs of the same code spread wider than any useful regression bound,
// however long each run is. The timed work is therefore cut into pieces of
// about a second, and the host's speed is read before and after each piece
// with a probe: fixed work from the standard library alone, which runs none
// of the program's code, so a change to the program cannot move it while a
// host slowdown moves both. The time metrics are in reference-host seconds:
// each piece's duration times refProbe over the mean of the readings before
// and after it.
const (
	probeLen     = 32 << 10             // words each probe goroutine hashes and sorts
	probeRepeats = 5                    // timed probe passes per reading; the reading is their median
	refProbe     = 3 * time.Millisecond // a typical probe reading on the reference box
)

// hostProbe is the probe's working memory: one buffer and one hash table
// per compute slot. It lives outside the Go heap, so the probe changes
// neither the collector's pacing nor, between readings, the process's
// resident set.
type hostProbe struct {
	mem   []byte
	words [clients][]uint64
}

func newHostProbe() (*hostProbe, error) {
	const words = probeLen + probeLen/2
	mem, err := syscall.Mmap(-1, 0, clients*words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host probe's memory: %w", err)
	}
	p := &hostProbe{mem: mem}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), clients*words)
	for g := range p.words {
		p.words[g] = all[g*words : (g+1)*words]
	}
	return p, nil
}

func (p *hostProbe) close() { _ = syscall.Munmap(p.mem) } // a failure only leaks the mapping until exit

// pass runs the probe once: on one goroutine per compute slot, fill the
// buffer from a fixed xorshift sequence, count its values into the hash
// table and sort it.
func (p *hostProbe) pass() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range p.words {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf, table := p.words[g][:probeLen], p.words[g][probeLen:]
			x := uint64(g + 1)
			for i := range buf {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				buf[i] = x
			}
			for i, k := range buf {
				table[(k*0x9e3779b97f4a7c15)>>50] += uint64(i) // the top 14 bits index probeLen/2 slots
			}
			slices.Sort(buf)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// read returns the median of probeRepeats passes. A first, untimed pass
// faults the memory in; afterwards it is handed back to the kernel.
func (p *hostProbe) read() time.Duration {
	p.pass()
	passes := make([]float64, probeRepeats)
	for i := range passes {
		passes[i] = p.pass().Seconds()
	}
	_ = syscall.Madvise(p.mem, syscall.MADV_DONTNEED) // on failure the pages merely stay resident
	return time.Duration(median(passes) * float64(time.Second))
}

// hostClock converts the durations of consecutive pieces of work into
// reference-host seconds. Nothing of the program may run while it reads the
// probe.
type hostClock struct {
	probe    *hostProbe
	last     time.Duration // the latest reading
	readings []float64     // every reading, in milliseconds
}

func newHostClock() (*hostClock, error) {
	p, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	c := &hostClock{probe: p}
	c.last = c.read()
	return c, nil
}

func (c *hostClock) close() { c.probe.close() }

func (c *hostClock) read() time.Duration {
	d := c.probe.read()
	c.readings = append(c.readings, d.Seconds()*1e3)
	return d
}

// scale reads the probe after a piece of work that took d and returns d in
// reference-host seconds.
func (c *hostClock) scale(d time.Duration) float64 {
	before := c.last
	c.last = c.read()
	return d.Seconds() * refProbe.Seconds() / ((before + c.last).Seconds() / 2)
}

// probeMs is the median probe reading of the run, in milliseconds.
func (c *hostClock) probeMs() float64 { return median(c.readings) }
