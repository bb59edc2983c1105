package core

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"sledge/internal/engine"
	"sledge/internal/wcc"
)

// spinForeverSrc never returns: the hostile tenant of the isolation tests.
const spinForeverSrc = `
export i32 main() {
	i32 x = 1;
	while (x > 0) {
		x = x + 1;
		if (x == 0) { x = 1; }
	}
	return x;
}
`

const trivialSrc = `
export i32 main() {
	return 0;
}
`

// TestTemporalIsolationAcrossTieringConfigs is the paper's temporal
// isolation claim on every tiering config the runtime accepts: on a single
// worker, a tenant spinning in while(1) must not starve an unrelated
// trivial tenant. Every accepted rung is preemptible, so the trivial
// request waits at most about one quantum behind the spinner — far inside
// isolationBound, which is itself far inside RequestTimeout.
func TestTemporalIsolationAcrossTieringConfigs(t *testing.T) {
	const (
		requestTimeout = 2 * time.Second
		isolationBound = 250 * time.Millisecond
	)
	for _, mode := range []TieringMode{TierAdaptive, TierCheapOnly} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := New(Config{
				Workers:        1,
				RequestTimeout: requestTimeout,
				Tiering:        &TieringConfig{Mode: mode},
			})
			defer rt.Close()
			for name, src := range map[string]string{"spin": spinForeverSrc, "trivial": trivialSrc} {
				m, err := rt.RegisterWCC(name, src, wcc.Options{})
				if err != nil {
					t.Fatalf("RegisterWCC(%s): %v", name, err)
				}
				if got := m.Stats().Tier; got != engine.TierLabelCheap {
					t.Fatalf("%s registered at tier %q, want %q", name, got, engine.TierLabelCheap)
				}
			}

			spinDone := make(chan error, 1)
			go func() {
				_, err := rt.Invoke("spin", nil)
				spinDone <- err
			}()
			// Let the spinner occupy the only worker first: its first
			// preemption proves it has run a full quantum.
			deadline := time.Now().Add(requestTimeout / 2)
			for rt.Stats().Preemptions == 0 {
				if time.Now().After(deadline) {
					t.Fatal("spinning tenant was never scheduled")
				}
				time.Sleep(time.Millisecond)
			}

			for i := 0; i < 5; i++ {
				start := time.Now()
				if _, err := rt.Invoke("trivial", nil); err != nil {
					t.Fatalf("trivial invoke %d beside a spinning tenant: %v", i, err)
				}
				if lat := time.Since(start); lat > isolationBound {
					t.Fatalf("trivial invoke %d took %v beside a spinning tenant, bound %v", i, lat, isolationBound)
				}
			}

			select {
			case err := <-spinDone:
				if err == nil || !strings.Contains(err.Error(), "timed out") {
					t.Errorf("spinning tenant: want timeout, got %v", err)
				}
			case <-time.After(requestTimeout + 5*time.Second):
				t.Fatal("spinning tenant's invoke never returned")
			}
		})
	}
}

// TestRuntimeRefusesNaiveTier: the naive tier's interpreter cannot yield at
// a quantum boundary, so the runtime refuses it on every registration path
// with ErrNaiveTier.
func TestRuntimeRefusesNaiveTier(t *testing.T) {
	res, err := wcc.Compile(trivialSrc, wcc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := engine.CompileBinary(res.Binary, nil, engine.Config{Tier: engine.TierNaive})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("compiled", func(t *testing.T) {
		rt := newTestRuntime(t)
		if _, err := rt.RegisterCompiled("naive", naive, "main", ""); !errors.Is(err, ErrNaiveTier) {
			t.Errorf("RegisterCompiled(naive) = %v, want ErrNaiveTier", err)
		}
		if _, ok := rt.Lookup("naive"); ok {
			t.Error("refused module was registered")
		}
		if _, err := rt.RegisterWCC("f", trivialSrc, wcc.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Replace("f", naive, "main", ""); !errors.Is(err, ErrNaiveTier) {
			t.Errorf("Replace(naive) = %v, want ErrNaiveTier", err)
		}
		// The refused replacement left the current deployment serving.
		if m, ok := rt.Lookup("f"); !ok || m.Compiled().Config().Tier == engine.TierNaive {
			t.Error("Replace installed the naive module")
		}
		if _, err := rt.Invoke("f", nil); err != nil {
			t.Errorf("invoke after refused Replace: %v", err)
		}
	})

	t.Run("engine-config", func(t *testing.T) {
		rt := New(Config{Workers: 1, Engine: engine.Config{Tier: engine.TierNaive}})
		defer rt.Close()
		if _, err := rt.RegisterWCC("f", trivialSrc, wcc.Options{}); !errors.Is(err, ErrNaiveTier) {
			t.Errorf("RegisterWCC under a naive engine config = %v, want ErrNaiveTier", err)
		}
		if _, err := rt.RegisterWasm("f", res.Binary, "main"); !errors.Is(err, ErrNaiveTier) {
			t.Errorf("RegisterWasm under a naive engine config = %v, want ErrNaiveTier", err)
		}
		if len(rt.Modules()) != 0 {
			t.Errorf("modules registered under a naive engine config: %v", rt.Modules())
		}
	})
}

// TestServeAfterCloseReturns: Close before Serve registers its listener
// must not leave Serve blocked in Accept.
func TestServeAfterCloseReturns(t *testing.T) {
	rt := New(Config{Workers: 1})
	rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve after Close = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		ln.Close()
		t.Fatal("Serve blocked after Close")
	}
}
