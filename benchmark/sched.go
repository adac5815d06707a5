package main

import "time"

// clock is what the open-loop schedule needs of time, so that tests can
// drive it with a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// schedule is an open-loop generator: operation i is due at
// start + i*interval whether or not the system has kept up, and every
// latency of the operation is taken from that due time, so a stall is
// charged to all the operations it delays.
type schedule struct {
	clk      clock
	start    time.Time
	interval time.Duration

	late       samples // issue time - due time, per operation
	backlogMax int     // most operations due but not yet issued, seen at any issue
}

func newSchedule(clk clock, perSecond float64) *schedule {
	return &schedule{
		clk:      clk,
		start:    clk.Now(),
		interval: time.Duration(float64(time.Second) / perSecond),
	}
}

func (s *schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// wait blocks until operation i is due and returns its due time. Called
// late, it returns at once and records by how much and how many later
// operations have come due meanwhile.
func (s *schedule) wait(i int) time.Time {
	due := s.due(i)
	now := s.clk.Now()
	if d := due.Sub(now); d > 0 {
		s.clk.Sleep(d)
		now = s.clk.Now()
	}
	s.late = append(s.late, max(now.Sub(due), 0))
	if backlog := int(now.Sub(s.start)/s.interval) - i; backlog > s.backlogMax {
		s.backlogMax = backlog
	}
	return due
}

// backlogAt is the number of whole intervals by which t trails the due time
// of the last of n operations: what is still queued when the run ends.
func (s *schedule) backlogAt(t time.Time, n int) int {
	return max(int(t.Sub(s.due(n-1))/s.interval), 0)
}
