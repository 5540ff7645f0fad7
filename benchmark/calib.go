package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// calibrator takes reference samples and scales measured times by them.
//
// A sample is refPasses timed passes of the reference kernel. Samples are
// taken before and after every op, so over a run they cover the same
// stretch of time the ops do. A run's calibrated time is
//
//	median(raw op times) × RefNominalMS / median(all pass times of the run)
//
// — one ratio per run. A slow-down that lasts (a busy hyperthread
// sibling, a throttled host) moves the passes' median with the ops',
// which is what the ratio cancels; interference shorter than an op moves
// neither median much. README.md has the recorded series this was chosen
// on: one ratio per op, each from the two 10 ms samples around it, was
// the noisier estimator here, because much of the interference is
// shorter than an op.
type calibrator struct {
	k       *refKernel
	passes  []float64 // ms, every pass since the last reset
	samples []float64 // ms, the median pass of every sample since the last reset
	sink    float64
}

func newCalibrator() *calibrator { return &calibrator{k: newRefKernel()} }

// sample runs refPasses passes of the reference kernel, timing each.
func (c *calibrator) sample() {
	var passes [refPasses]float64
	for i := range passes {
		start := time.Now()
		c.sink += c.k.pass()
		passes[i] = msSince(start)
	}
	c.passes = append(c.passes, passes[:]...)
	c.samples = append(c.samples, median(passes[:]))
}

// reset forgets the samples taken so far: the next section of the run
// (set-up, then the timed ops) is calibrated by its own samples.
func (c *calibrator) reset() { c.passes, c.samples = nil, nil }

// factor is what a raw duration is multiplied by to calibrate it: the
// reference kernel's nominal pass time over the median of the pass times
// measured in this section.
func (c *calibrator) factor() float64 { return RefNominalMS / median(c.passes) }

// calibrated is the section's calibrated time for a series of raw
// measurements of the same thing: their median times the factor.
func (c *calibrator) calibrated(raw []float64) float64 { return median(raw) * c.factor() }

// spread is the interquartile range of the samples over their median:
// how unsteady the box was while the section measured.
func (c *calibrator) spread() float64 { return iqrOverMedian(c.samples) }

// timedOp is one measurement, raw.
type timedOp struct {
	wallMS, cpuMS float64
}

// wallsOf and cpusOf are the ops' raw wall and CPU times.
func wallsOf(ops []timedOp) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.wallMS
	}
	return out
}

func cpusOf(ops []timedOp) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.cpuMS
	}
	return out
}

// bracket times fn and takes a reference sample on either side of it.
func (c *calibrator) bracket(fn func()) timedOp {
	c.sample()
	cpu0 := selfCPU()
	start := time.Now()
	fn()
	op := timedOp{wallMS: msSince(start), cpuMS: msOf(selfCPU() - cpu0)}
	c.sample()
	return op
}

func msSince(t time.Time) float64  { return msOf(time.Since(t)) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time another process has used: the on-CPU
// nanoseconds of its threads from /proc/<pid>/task/*/schedstat, or, on a
// kernel without scheduler statistics, user+system time from
// /proc/<pid>/stat, whose clock ticks only every 10 ms.
func procCPU(pid int) (time.Duration, error) {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var total time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			if ns, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				total += time.Duration(ns)
			}
		}
	}
	if total > 0 {
		return total, nil
	}
	return procStatCPU(pid)
}

func procStatCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after the
	// closing parenthesis. utime and stime are fields 14 and 15.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	const tick = 10 * time.Millisecond
	return time.Duration(ut+st) * tick, nil
}

// peakRSSMB is the high-water resident set (VmHWM) of a process in MB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics (the
// "inclusive" method); it returns 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func iqrOverMedian(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / m
}
