package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// mean returns the arithmetic mean of xs, 0 when it is empty.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(1, len(xs)))
}

// median returns the middle value of xs, averaging the two middle ones
// of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssProbe samples the process's resident set every 10 ms until peak
// is called.
type rssProbe struct {
	stop chan struct{}
	max  chan float64
}

func startRSS() *rssProbe {
	p := &rssProbe{stop: make(chan struct{}), max: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		peak := rssMB()
		for {
			select {
			case <-p.stop:
				p.max <- max(peak, rssMB())
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return p
}

// peak stops the probe and returns the highest resident set it saw, in
// MiB.
func (p *rssProbe) peak() float64 {
	close(p.stop)
	return <-p.max
}

// rssMB is the current resident set in MiB (0 where /proc is missing).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fs := strings.Fields(string(b))
	if len(fs) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fs[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// udpRcvbufErrors reads the kernel's UDP RcvbufErrors counter: datagrams
// dropped because a socket's receive buffer was full.
func udpRcvbufErrors() float64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var header []string
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) == 0 || fs[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fs
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(fs) {
				v, _ := strconv.ParseFloat(fs[i], 64)
				return v
			}
		}
	}
	return 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// could see one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// derive maps (seed, label, i) to an independent non-zero 63-bit value
// (splitmix64 over an FNV-1a hash of the label), so every input stream
// of a workload follows from the one workload seed.
func derive(seed int64, label string, i int) int64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(label); j++ {
		h ^= uint64(label[j])
		h *= 1099511628211
	}
	z := uint64(seed) ^ h ^ (uint64(i) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	v := int64(z >> 1)
	if v == 0 {
		v = 1
	}
	return v
}
