package main

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"math"
	"runtime"
	"time"
)

// The canary turns wall and CPU time into ticks.
//
// This shared 2-vCPU machine does not have one speed. Measured alone on
// an idle box, a stdlib RSA-1024 signature takes 315 µs for some
// seconds and 555 µs for the next — the host's other tenants come and
// go on the sibling hyperthreads, and ALU-bound code pays 1.76× for it —
// while a 256 KiB copy-and-hash takes 185 µs ± 2 % throughout. A
// workload is a mix of the two kinds of work, so its time follows the
// signature's only in part: secure unicast by ~0.9 of it (in log
// terms), the bulk workload by ~0.7. Raw times of the same code so
// differ by 30–40 % between a calm minute and a busy one, and times
// divided by the signature alone still by 7–15 %.
//
// One tick is therefore the weighted geometric mean of the two
// yardsticks, alu^w × mem^(1-w), where w is the workload's aluShare: a
// constant of the benchmark, calibrated once per workload (README,
// "Calibrating aluShare"). Both yardsticks call the standard library
// directly — crypto/rsa on a fixture key, never internal/keys — so no
// change to the program can move them.
//
// Each flow times one sample of each every few ops, between ops, so the
// samples of a window are spread through it and taken under its own
// conditions: same goroutine, warm, the other flow busy. (Bursts
// bracketing each window were tried first: they sample the machine
// after an idle pause and up to a second away from the work they are
// meant to scale, and their ticks ran against the window's wall time as
// often as with it.) A window's wall, CPU and allocation deltas are
// reported net of its canary samples.
type canary struct {
	key    *rsa.PrivateKey
	digest [sha256.Size]byte
	src    []byte
	// What one sample (signature plus copy-and-hash) allocates,
	// measured once so windows can be reported net of it.
	mallocsPerSample float64
	bytesPerSample   float64
}

// memCanaryBytes is the size of the memory yardstick's buffer: past the
// L2 cache, like the message buffers of the bulk workload.
const memCanaryBytes = 256 << 10

// sample is one timing of both yardsticks.
type sample struct {
	alu time.Duration // one RSA-1024 PKCS#1 v1.5 signature
	mem time.Duration // copy 256 KiB into a fresh buffer and SHA-256 it
}

func newCanary() (*canary, error) {
	key, err := loadCanaryKey()
	if err != nil {
		return nil, err
	}
	c := &canary{key: key, digest: sha256.Sum256([]byte("cmd/perf canary")), src: make([]byte, memCanaryBytes)}
	const n = 32
	c.sample() // first use sets up the key's precomputed values
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		c.sample()
	}
	runtime.ReadMemStats(&m1)
	c.mallocsPerSample = float64(m1.Mallocs-m0.Mallocs) / n
	c.bytesPerSample = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	return c, nil
}

func (c *canary) sample() sample {
	t0 := time.Now()
	if _, err := rsa.SignPKCS1v15(rand.Reader, c.key, crypto.SHA256, c.digest[:]); err != nil {
		panic("canary: " + err.Error()) // a parsed fixture key cannot fail to sign
	}
	t1 := time.Now()
	dst := make([]byte, len(c.src))
	copy(dst, c.src)
	sum := sha256.Sum256(dst)
	t2 := time.Now()
	runtime.KeepAlive(sum)
	return sample{alu: t1.Sub(t0), mem: t2.Sub(t1)}
}

// samples takes n samples back to back.
func (c *canary) samples(n int) []sample {
	out := make([]sample, n)
	for i := range out {
		out[i] = c.sample()
	}
	return out
}

// tickOf folds a window's samples into its tick, in seconds, for a
// workload of the given aluShare. It returns the two medians too.
func tickOf(samples []sample, aluShare float64) (tick, alu, mem float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	a := make([]time.Duration, len(samples))
	m := make([]time.Duration, len(samples))
	for i, s := range samples {
		a[i], m[i] = s.alu, s.mem
	}
	alu, mem = medianDuration(a)/1e9, medianDuration(m)/1e9
	return math.Pow(alu, aluShare) * math.Pow(mem, 1-aluShare), alu, mem
}
