package membuf

import (
	"sync"
	"testing"
)

func TestAcquireCapacityAndClassRounding(t *testing.T) {
	p := NewPool()
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 1 << 20, MaxPooled} {
		b := p.Acquire(n)
		if len(b.B) != 0 {
			t.Errorf("Acquire(%d): len = %d, want 0", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Errorf("Acquire(%d): cap = %d, want >= %d", n, cap(b.B), n)
		}
		if c := cap(b.B); c&(c-1) != 0 {
			t.Errorf("Acquire(%d): cap %d not a power of two", n, c)
		}
		b.Release()
	}
}

func TestOversizeUnpooled(t *testing.T) {
	p := NewPool()
	b := p.Acquire(MaxPooled + 1)
	if cap(b.B) < MaxPooled+1 {
		t.Fatalf("oversize cap = %d", cap(b.B))
	}
	b.Release()
	if s := p.Stats(); s.Oversize != 1 || s.Outstanding() != 0 {
		t.Fatalf("stats after oversize roundtrip: %+v", s)
	}
}

func TestReleaseRecyclesArena(t *testing.T) {
	p := NewPool()
	a := p.Acquire(100)
	arr := &a.B[:1][0]
	a.Release()
	// Same goroutine, no GC pressure: the class pool should hand the
	// arena straight back. The race detector's sync.Pool drops a random
	// quarter of Puts, so there release/acquire repeats until one
	// recycles; 64 tries all fail with probability 4^-64.
	tries := 1
	if raceEnabled {
		tries = 64
	}
	recycled := false
	for i := 0; i < tries && !recycled; i++ {
		misses := p.Stats().Misses
		b := p.Acquire(100)
		recycled = &b.B[:1][0] == arr
		if fresh := p.Stats().Misses != misses; fresh == recycled {
			t.Fatalf("try %d: arena recycled = %v but fresh allocation = %v", i, recycled, fresh)
		}
		arr = &b.B[:1][0]
		b.Release()
	}
	if !recycled {
		t.Fatalf("arena not recycled by immediate re-acquire in %d tries", tries)
	}
	// Every try but the last allocated afresh, plus the first Acquire.
	if s := p.Stats(); s.Releases != s.Acquires || s.Misses != s.Acquires-1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	b := p.Acquire(8)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

func TestReleaseNilNoop(t *testing.T) {
	var b *Buf
	b.Release() // must not panic
}

func TestPoisonOnRelease(t *testing.T) {
	p := NewPool()
	p.SetPoison(true)
	b := p.Acquire(64)
	b.B = b.B[:64]
	for i := range b.B {
		b.B[i] = 'A'
	}
	held := b.B // simulated use-after-release
	b.Release()
	for i, v := range held {
		if v != PoisonByte {
			t.Fatalf("byte %d after release = %#x, want %#x", i, v, PoisonByte)
		}
	}
}

// TestLeakTrackingConcurrent hammers the pool from many goroutines with
// tracking on (run under -race in check.sh): afterwards nothing may be
// outstanding, except the buffer deliberately leaked to prove the
// detector sees it.
func TestLeakTrackingConcurrent(t *testing.T) {
	p := NewPool()
	p.EnableTracking()
	defer p.DisableTracking()

	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				b := p.Acquire(1 << uint(i%14))
				b.B = append(b.B, byte(w))
				b.Release()
			}
		}(w)
	}
	wg.Wait()

	if leaks := p.Leaks(); len(leaks) != 0 {
		t.Fatalf("leaked buffers after balanced workload: %v", leaks)
	}
	if s := p.Stats(); s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", s.Outstanding())
	}

	leaked := p.Acquire(128)
	if leaks := p.Leaks(); len(leaks) != 1 {
		t.Fatalf("tracker reports %d leaks, want the 1 deliberate one", len(leaks))
	}
	leaked.Release()
}
