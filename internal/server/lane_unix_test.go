//go:build unix

package server

import (
	"net/http"
	"syscall"
	"testing"
	"time"
)

// TestWallLaneDoesNotSpinOnFarFutureEvent: a wall daemon whose only event is
// 1e10 s away sleeps. Before the wait saturated, the overflowed timer fired at
// once and the lane burned a CPU.
func TestWallLaneDoesNotSpinOnFarFutureEvent(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	if resp, _ := postJob(t, hs.URL, `{"size":4,"runtime":1e10}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			t.Fatal(err)
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	before := cpu()
	time.Sleep(300 * time.Millisecond)
	if used := cpu() - before; used >= 100*time.Millisecond {
		t.Fatalf("an idle wall lane used %v of CPU in 300ms", used)
	}
}
