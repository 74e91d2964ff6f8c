package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuWindow measures, over a window, the CPU time this process used and
// the share of the host's CPU time the hypervisor took away (steal, from
// /proc/stat). Steal is not charged to the process, so CPU time per unit of
// work tracks what the program does, not how much of the host it was given.
type cpuWindow struct {
	cpu          time.Duration
	steal, total uint64
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostTicks returns the steal and total jiffies of the aggregate cpu line of
// /proc/stat; zeros when it cannot be read.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close() //nolint:errcheck // read-only
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func startCPU() *cpuWindow {
	c := &cpuWindow{cpu: processCPU()}
	c.steal, c.total = hostTicks()
	return c
}

// cpuUse is what a cpuWindow measured.
type cpuUse struct {
	cpuS  float64 // process CPU seconds
	steal float64 // host steal share of CPU time over the same span
}

func (c *cpuWindow) stop() cpuUse {
	u := cpuUse{cpuS: (processCPU() - c.cpu).Seconds()}
	steal, total := hostTicks()
	if total > c.total {
		u.steal = float64(steal-c.steal) / float64(total-c.total)
	}
	return u
}
