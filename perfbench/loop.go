package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// openResult holds one open-loop phase's samples, all in microseconds.
type openResult struct {
	latency  []timed   // completion − due time: includes any wait a stall imposed
	lateness []float64 // dispatch − due time: how late the generator ran
	elapsed  time.Duration
}

// waitUntil blocks until t. time.Sleep on Linux wakes up to ~1 ms late
// (the runtime's timers have millisecond resolution), far coarser than one
// request, so the wait is a nanosleep system call: the thread blocks
// without spinning and the runtime hands its processor to other goroutines.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop re-checks the time
	}
}

// openLoop sends requests on a fixed schedule: request i is due at
// start + i/rate, whether or not earlier ones have finished. A pacer hands
// each request to the senders (one connection each) at its due time; when
// all senders are busy it waits in a queue, and its latency is still timed
// from its due time, so the queueing a stall causes is counted. op(s, i)
// performs request i on sender s.
func openLoop(rate float64, dur time.Duration, senders int, op func(sender int, i int64)) openResult {
	total := int64(rate * dur.Seconds())
	type job struct {
		i   int64
		due time.Time
	}
	jobs := make(chan job, total) // sized to the number of sends: the pacer never blocks
	lat := make([][]timed, senders)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := range jobs {
				op(s, j.i)
				now := time.Now()
				lat[s] = append(lat[s], timed{now.Sub(start), us(now.Sub(j.due))})
			}
		}(s)
	}
	var out openResult
	for i := int64(0); i < total; i++ {
		due := start.Add(time.Duration(float64(i) / rate * 1e9))
		waitUntil(due)
		out.lateness = append(out.lateness, us(time.Since(due)))
		jobs <- job{i, due}
		// The send readied a sender on this processor; let it run now
		// rather than after the pacer's next sleep returns.
		runtime.Gosched()
	}
	close(jobs)
	wg.Wait()
	out.elapsed = time.Since(start)
	for _, l := range lat {
		out.latency = append(out.latency, l...)
	}
	return out
}

// closedLoop runs workers that each issue their next request as soon as the
// previous one completes, until dur has passed. op(worker, seq) performs one
// request; seq counts that worker's requests.
func closedLoop(workers int, dur time.Duration, op func(worker int, seq int64)) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := int64(0); time.Now().Before(deadline); seq++ {
				op(w, seq)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
