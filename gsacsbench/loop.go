package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// sample is one timed request.
type sample struct {
	kind kind
	// latency runs from the request's due time to the end of the response
	// body.
	latency time.Duration
}

// tally counts attempted and failed requests across phases. Failed means a
// transport error, a refusal or a wrong answer.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

func (t *tally) note(reason string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if reason == "" {
		return true
	}
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintln(os.Stderr, "gsacsbench: wrong answer:", reason)
	}
	return false
}

// send issues r and checks the answer. It returns whether the answer was
// right and when it had fully arrived, before the check ran.
func send(ctx context.Context, c *child, ref *reference, t *tally, r request) (bool, time.Time) {
	status, body, err := c.do(ctx, r.method(), r.path, r.body)
	done := time.Now()
	if err != nil {
		return t.note(fmt.Sprintf("%s: %v", r.kind, err)), done
	}
	return t.note(ref.check(r, status, body)), done
}

// openResult is the outcome of an open-loop phase.
type openResult struct {
	samples  []sample
	lateness []time.Duration // how late the generator woke for a request it was idle for
	sent     int
	elapsed  time.Duration
}

// openLoop sends requests at a fixed rate for d, one at a time, taking
// them from the two lanes in turn. Request j is due at start + j/rps; when
// the previous request is still running it waits, and that wait counts in
// its latency, which is timed from the due time. One request in flight
// keeps concurrent requests from slowing each other, which on a 2-CPU box
// made latency vary far more between runs than the server's own cost did.
func openLoop(ctx context.Context, c *child, ref *reference, t *tally, lanes [2]*lane, rps float64, d time.Duration) openResult {
	total := int(rps * d.Seconds())
	interval := time.Duration(float64(time.Second) / rps)
	var res openResult
	start := time.Now()
	for j := 0; j < total && ctx.Err() == nil; j++ {
		due := start.Add(time.Duration(j) * interval)
		if time.Until(due) > 0 {
			sleepUntil(due)
			res.lateness = append(res.lateness, time.Since(due))
		}
		r := lanes[j%2].nextRequest()
		_, done := send(ctx, c, ref, t, r)
		res.samples = append(res.samples, sample{kind: r.kind, latency: done.Sub(due)})
	}
	res.sent = len(res.samples)
	res.elapsed = time.Since(start)
	return res
}

// closedResult is the outcome of a closed-loop phase.
type closedResult struct {
	sent, correct int
	elapsed       time.Duration
	cpu           time.Duration // server CPU over the phase
}

// closedLoop runs two clients, each sending its next request as soon as the
// previous answer arrives, for d.
func closedLoop(ctx context.Context, c *child, ref *reference, t *tally, lanes [2]*lane, d time.Duration) (closedResult, error) {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		res closedResult
	)
	cpu0, err := c.cpuTime()
	if err != nil {
		return res, err
	}
	start := time.Now()
	end := start.Add(d)
	for li := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			sent, correct := 0, 0
			for time.Now().Before(end) && ctx.Err() == nil {
				sent++
				if ok, _ := send(ctx, c, ref, t, l.nextRequest()); ok {
					correct++
				}
			}
			mu.Lock()
			res.sent += sent
			res.correct += correct
			mu.Unlock()
		}(lanes[li])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	cpu1, err := c.cpuTime()
	if err != nil {
		return res, err
	}
	res.cpu = cpu1 - cpu0
	return res, nil
}

// spinWindow is how much of each wait is spent polling the clock rather than
// asleep: an idle Go runtime wakes from a sleep up to a millisecond late,
// which would add the generator's own lateness to every latency.
const spinWindow = time.Millisecond

func sleepUntil(due time.Time) {
	if wait := time.Until(due) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}
