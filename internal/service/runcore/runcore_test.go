package runcore

import (
	"errors"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"popproto/internal/store"
)

// TestSchedulerRoundRobinFairness pins the dispatch order: with one
// worker and queued work in two classes, dispatch alternates between
// the classes instead of draining the first class first.
func TestSchedulerRoundRobinFairness(t *testing.T) {
	s := NewScheduler(1)
	a := s.NewClass("a", 16, 1)
	b := s.NewClass("b", 16, 1)

	var mu sync.Mutex
	var order []string
	record := func(name string) Task {
		return func() {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
		}
	}

	// Block the single worker so the queues fill before dispatch starts.
	release := make(chan struct{})
	if err := a.Enqueue(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	// Give the worker time to pick up the blocker.
	time.Sleep(20 * time.Millisecond)
	for _, task := range []struct {
		c    *Class
		name string
	}{{a, "a1"}, {a, "a2"}, {b, "b1"}, {b, "b2"}} {
		if err := task.c.Enqueue(record(task.name)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	s.Close()

	want := []string{"b1", "a1", "b2", "a2"} // round-robin after the class-a blocker
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (no round-robin fairness)", order, want)
		}
	}
}

// TestSchedulerConcurrencyCap: a class never exceeds its maxRunning even
// with idle workers available.
func TestSchedulerConcurrencyCap(t *testing.T) {
	s := NewScheduler(4)
	c := s.NewClass("capped", 16, 2)

	var mu sync.Mutex
	running, maxSeen := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		if err := c.Enqueue(func() {
			defer wg.Done()
			mu.Lock()
			running++
			if running > maxSeen {
				maxSeen = running
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s.Close()
	if maxSeen > 2 {
		t.Fatalf("observed %d concurrent tasks, cap is 2", maxSeen)
	}
}

// TestSchedulerBusyAndClosed: admission control reports the shared
// sentinel errors, and tasks queued at Close time still run (the
// cancel-drain path every kind's canceled-while-queued transition
// depends on).
func TestSchedulerBusyAndClosed(t *testing.T) {
	s := NewScheduler(1)
	c := s.NewClass("c", 1, 1)

	release := make(chan struct{})
	if err := c.Enqueue(func() { <-release }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // worker holds the blocker
	drained := make(chan struct{})
	if err := c.Enqueue(func() { close(drained) }); err != nil {
		t.Fatal(err) // occupies the single queue slot
	}
	if err := c.Enqueue(func() {}); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow enqueue error = %v, want ErrBusy", err)
	}

	close(release)
	s.Close() // must drain the queued task before the workers exit
	select {
	case <-drained:
	default:
		t.Fatal("task queued before Close never ran")
	}
	if err := c.Enqueue(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close enqueue error = %v, want ErrClosed", err)
	}
}

// TestRunCloseDiscipline: subscriber channels are closed exactly once,
// by Finish, never by the subscription's cancel; replay callbacks are
// atomic with registration; terminal runs hand back a closed channel.
func TestRunCloseDiscipline(t *testing.T) {
	r := NewRun[int](id(t))
	var replay []int

	live, cancel := r.Subscribe(8, nil)
	r.Publish(1, func() { replay = append(replay, 1) })
	r.Publish(2, func() { replay = append(replay, 2) })
	if got := <-live; got != 1 {
		t.Fatalf("first event = %d, want 1", got)
	}
	cancel()
	cancel() // safe to call twice
	// After cancel the channel stays open (only Finish closes it); no
	// further events are delivered.
	select {
	case v, open := <-live:
		if !open {
			t.Fatal("cancel closed the subscription channel")
		}
		if v != 2 {
			t.Fatalf("unexpected event %d after buffered 2", v)
		}
	default:
	}

	var final string
	r.Finish(StateDone, "", func() { final = "set" })
	if final != "set" {
		t.Fatal("Finish update callback did not run")
	}
	if r.State() != StateDone {
		t.Fatalf("state = %s, want done", r.State())
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("done channel not closed")
	}
	// Finish after terminal is a no-op, update callback included.
	r.Finish(StateFailed, "boom", func() { final = "clobbered" })
	if r.State() != StateDone || final != "set" {
		t.Fatalf("second Finish mutated a terminal run: state=%s final=%q", r.State(), final)
	}

	// Subscribing to a terminal run: replay runs, channel arrives closed.
	var seen []int
	live2, cancel2 := r.Subscribe(8, func() { seen = append(seen, replay...) })
	defer cancel2()
	if _, open := <-live2; open {
		t.Fatal("terminal run's subscription channel not closed")
	}
	if len(seen) != 2 {
		t.Fatalf("replay callback saw %d events, want 2", len(seen))
	}
}

// TestRunBeginAfterCancel: a queued run canceled before its worker
// dequeues it finishes as canceled through Begin.
func TestRunBeginAfterCancel(t *testing.T) {
	r := NewRun[int](id(t))
	r.Cancel()
	if r.Begin(nil) {
		t.Fatal("Begin succeeded on a canceled run")
	}
	if r.State() != StateCanceled {
		t.Fatalf("state = %s, want canceled", r.State())
	}
	select {
	case <-r.Done():
	default:
		t.Fatal("canceled-while-queued run's done channel not closed")
	}
}

func id(t *testing.T) string { return t.Name() }

// TestCompleteNeverClobbersLiveRun: completing a synthetic run (a
// sweep cell sharing its result into the experiment index) must not
// displace an identical *in-flight* run from the id index — the live
// run has to stay addressable so its cancellation keeps working.
func TestCompleteNeverClobbersLiveRun(t *testing.T) {
	x := NewIndex(NewCore(nil), "job", 4, func(r *Run[int]) string { return r.ID })

	live, _, err := x.Submit("key-1", "id-1", nil, func() (*Run[int], error) {
		return NewRun[int]("id-1"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if live.State() != StateQueued {
		t.Fatalf("fresh run state = %s", live.State())
	}

	synthetic := NewRun[int]("id-1")
	x.Complete("key-1", synthetic, StateDone, "", nil, nil, nil)

	got, ok := x.Get("id-1", nil)
	if !ok || got != live {
		t.Fatal("synthetic finished run displaced the live run from the id index")
	}
	// Once the live run is terminal, filing is allowed again (last wins),
	// and Complete tolerates a run that is already terminal.
	live.Finish(StateDone, "", nil)
	x.Complete("key-1", synthetic, StateDone, "", nil, nil, nil)
	if got, _ := x.Get("id-1", nil); got != synthetic {
		t.Fatal("terminal run was not replaceable")
	}
}

// TestSubmitAfterComplete: a resubmission of a completed done or failed
// run is a hit on that run; a canceled one is re-run, whether Complete
// has filed it or Begin has only just finished it as canceled while
// queued — and completing that stale run then leaves the re-run alone.
func TestSubmitAfterComplete(t *testing.T) {
	x := NewIndex(NewCore(nil), "job", 4, func(r *Run[int]) string { return r.ID })
	created := 0
	create := func(id string) func() (*Run[int], error) {
		return func() (*Run[int], error) {
			created++
			return NewRun[int](id), nil
		}
	}
	for _, c := range []struct {
		name    string
		state   State
		filed   bool
		outcome Outcome
		sameRun bool
		creates int
	}{
		{"done", StateDone, true, OutcomeHit, true, 1},
		{"failed", StateFailed, true, OutcomeHit, true, 1},
		{"canceled", StateCanceled, true, OutcomeNew, false, 2},
		{"canceled-queued", StateCanceled, false, OutcomeNew, false, 2},
	} {
		key, id := "key-"+c.name, "id-"+c.name
		created = 0
		first, _, err := x.Submit(key, id, nil, create(id))
		if err != nil {
			t.Fatal(err)
		}
		if c.filed {
			x.Complete(key, first, c.state, "", nil, nil, nil)
		} else {
			first.Cancel()
			first.Begin(nil) // canceled while queued; Complete not yet called
		}
		again, outcome, err := x.Submit(key, id, nil, create(id))
		if err != nil {
			t.Fatal(err)
		}
		if outcome != c.outcome || (again == first) != c.sameRun || created != c.creates {
			t.Errorf("%s run resubmitted: outcome %d, same run %v, %d runs created; want %d, %v, %d",
				c.name, outcome, again == first, created, c.outcome, c.sameRun, c.creates)
		}
		if !c.filed {
			x.Complete(key, first, StateCanceled, "", nil, nil, nil)
			if got, _ := x.Get(id, nil); got != again {
				t.Errorf("%s: completing the stale canceled run displaced its live re-run", c.name)
			}
		}
	}
}

// TestDoneImpliesIndexedAndDurable pins the completion invariant: at
// the instant a run's Done channel closes, Lookup finds it in the
// finished-work cache and its record is already in the durable store.
func TestDoneImpliesIndexedAndDurable(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	x := NewIndex(NewCore(st), store.KindJob, 64, func(r *Run[int]) string { return r.ID })
	for i := 0; i < 20; i++ {
		key, id := "key-"+strconv.Itoa(i), "id-"+strconv.Itoa(i)
		r, _, err := x.Submit(key, id, nil, func() (*Run[int], error) { return NewRun[int](id), nil })
		if err != nil {
			t.Fatal(err)
		}
		observed := make(chan string, 1)
		go func() {
			<-r.Done()
			_, cached := x.Lookup(key)
			_, stored := st.GetByID(id)
			switch {
			case !cached:
				observed <- "not cached"
			case !stored:
				observed <- "not stored"
			default:
				observed <- ""
			}
		}()
		r.Begin(nil)
		x.Complete(key, r, StateDone, "", nil, i, i)
		if miss := <-observed; miss != "" {
			t.Fatalf("run %s observed done but %s", id, miss)
		}
		if m := r.Meta(); m.Durable != nil {
			t.Fatalf("run %s acknowledged by the store rendered durable=%v", id, *m.Durable)
		}
	}
}

// TestRenderFreezesTerminalView: a live run's view is encoded afresh on
// every Render, with one view call; from the terminal transition on,
// Render serves one stored encoding, and a late Publish can no longer
// change the state behind it.
func TestRenderFreezesTerminalView(t *testing.T) {
	r := NewRun[int]("r")
	r.Begin(nil)
	count, calls := 0, 0
	view := func() map[string]any {
		calls++
		return map[string]any{"state": r.State(), "count": count, "html": "<&>"}
	}
	for i := 1; i <= 2; i++ {
		r.Publish(i, func() { count = i })
		body, err := Render(r, view)
		want := `{"count":` + strconv.Itoa(i) + `,"html":"<&>","state":"running"}`
		if err != nil || string(body) != want || calls != i {
			t.Fatalf("live render %d = %s (%v, %d view calls), want %s", i, body, err, calls, want)
		}
	}
	r.Finish(StateDone, "", nil)
	first, err := Render(r, view)
	if want := `{"count":2,"html":"<&>","state":"done"}`; err != nil || string(first) != want {
		t.Fatalf("frozen body %s (%v), want %s", first, err, want)
	}
	r.Publish(3, func() { count = 3 })
	if again, _ := Render(r, view); &again[0] != &first[0] || count != 2 || calls != 3 {
		t.Fatalf("terminal run re-rendered (%s, %d view calls) or took a late update (count %d)", again, calls, count)
	}
}
