package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTimes is the host's aggregate CPU time from /proc/stat, in ticks.
type cpuTimes struct{ steal, total uint64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice]:
		// guest time is already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of host CPU time the hypervisor gave to other
// guests since t.
func stealSince(t cpuTimes) float64 {
	now := readCPUTimes()
	if now.total <= t.total {
		return 0
	}
	return float64(now.steal-t.steal) / float64(now.total-t.total)
}
