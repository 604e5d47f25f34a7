package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rtoss/internal/detect"
)

// admit_test.go pins the deadline filter between gather and execute
// under a virtual clock: a Config.clock pinned to a fixed instant makes
// every admission decision deterministic, so none of these tests sleep.

// epoch is the pinned virtual instant the tests below measure
// deadlines against.
var epoch = time.Unix(1_700_000_000, 0)

// TestEDFExpiry: expired() is a pure function of (deadline, now) — a
// request sheds exactly when time passes its deadline, and the
// deadline instant itself is still admissible.
func TestEDFExpiry(t *testing.T) {
	req := &request{deadline: epoch.Add(20 * time.Millisecond)}
	if expired(req, epoch) {
		t.Fatal("fresh request reported expired")
	}
	if expired(req, req.deadline) {
		t.Fatal("request expired exactly at its deadline; deadline instant itself must still be admissible")
	}
	if !expired(req, req.deadline.Add(time.Nanosecond)) {
		t.Fatal("request not expired after its deadline passed")
	}
	if expired(&request{}, epoch.Add(time.Hour)) {
		t.Fatal("deadline-less request must never expire")
	}
}

// TestServerShedsExpiredUnderVirtualClock pins the Server integration
// without a single sleep: a virtual clock pinned *past* the deadline
// makes the worker shed the frame at admission with ErrDeadline, and
// the shed shows up in the stats counters.
func TestServerShedsExpiredUnderVirtualClock(t *testing.T) {
	p := tinyProgram(t)
	s := NewServer(p, Config{clock: func() time.Time { return epoch }})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}

	// Deadline in the virtual past: admission must shed, not serve.
	_, err := s.DetectFrame(samplePPM(t), pipe, 32, 32, FrameOptions{
		Deadline: epoch.Add(-time.Millisecond), Block: true,
	})
	if err != ErrDeadline {
		t.Fatalf("expired frame returned %v, want ErrDeadline", err)
	}
	// Deadline in the virtual future: serves normally and counts a hit
	// (the clock never advances, so the deadline cannot pass).
	res, err := s.DetectFrame(samplePPM(t), pipe, 32, 32, FrameOptions{
		Deadline: epoch.Add(time.Hour), Block: true,
	})
	if err != nil || res == nil {
		t.Fatalf("in-budget frame: res=%v err=%v", res, err)
	}
	st := s.Stats()
	if st.DeadlineShed != 1 || st.DeadlineHits != 1 || st.DeadlineMisses != 0 {
		t.Fatalf("stats shed/hits/misses = %d/%d/%d, want 1/1/0", st.DeadlineShed, st.DeadlineHits, st.DeadlineMisses)
	}
}

// TestAdmitMixedBatch: one gathered batch carrying expired, in-budget
// and deadline-less requests. Admission answers exactly the expired
// ones with ErrDeadline, and the survivors still share a forward.
func TestAdmitMixedBatch(t *testing.T) {
	const n = 8 // = MaxBatch, so gather returns as soon as all arrive
	p := tinyProgram(t)
	s := NewServer(p, Config{
		MaxBatch: n, MaxDelay: 2 * time.Second, Workers: 1,
		clock: func() time.Time { return epoch },
	})
	defer s.Close()
	pipe := detect.Config{Spec: tinySpec(), ScoreThreshold: 0.05}
	img := samplePPM(t)

	// Requests 0..3 expired, 4..5 in budget, 6..7 without a deadline.
	deadline := func(i int) time.Time {
		switch {
		case i < n/2:
			return epoch.Add(-time.Millisecond)
		case i < n/2+2:
			return epoch.Add(time.Hour)
		}
		return time.Time{}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.DetectFrame(img, pipe, 32, 32, FrameOptions{Deadline: deadline(i), Block: true})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if i < n/2 {
			if !errors.Is(err, ErrDeadline) {
				t.Errorf("expired request %d: err = %v, want ErrDeadline", i, err)
			}
		} else if err != nil {
			t.Errorf("live request %d failed beside expired ones: %v", i, err)
		}
	}
	st := s.Stats()
	if st.DeadlineShed != n/2 || st.DeadlineHits != 2 || st.DeadlineMisses != 0 {
		t.Errorf("stats shed/hits/misses = %d/%d/%d, want %d/2/0", st.DeadlineShed, st.DeadlineHits, st.DeadlineMisses, n/2)
	}
	if st.Completed != n/2 {
		t.Errorf("completed %d images, want the %d survivors", st.Completed, n/2)
	}
	if st.AvgBatch <= 1 {
		t.Errorf("avg batch %.2f: the survivors of one gathered batch did not share a forward", st.AvgBatch)
	}
}
