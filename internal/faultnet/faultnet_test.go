package faultnet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oscar-overlay/oscar/internal/transport"
)

// pair wires two endpoints on a fresh fabric, the second serving a
// trivial OK handler, and returns the first wrapped in net's faults.
func pair(t *testing.T, net *Network, served *atomic.Int64) (transport.Transport, transport.Addr) {
	t.Helper()
	fabric := transport.NewFabric()
	a := fabric.Endpoint()
	b := fabric.Endpoint()
	a.Serve(func(*transport.Request) *transport.Response { return &transport.Response{OK: true} })
	b.Serve(func(*transport.Request) *transport.Response {
		if served != nil {
			served.Add(1)
		}
		return &transport.Response{OK: true}
	})
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return net.Wrap(a), b.Addr()
}

// schedule records which of n calls fail, and how — the observable fault
// schedule of one link.
func schedule(t *testing.T, tr transport.Transport, dst transport.Addr, n int) []byte {
	t.Helper()
	out := make([]byte, n)
	for i := range out {
		_, err := tr.CallCtx(context.Background(), dst, &transport.Request{Op: transport.OpPing})
		switch {
		case err == nil:
			out[i] = '.'
		case errors.Is(err, transport.ErrOverloaded):
			out[i] = 'o'
		case errors.Is(err, transport.ErrUnreachable):
			out[i] = 'x'
		default:
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
	return out
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	faults := Faults{Drop: 0.2, Overload: 0.1}
	run := func(seed int64) string {
		net := New(seed)
		net.SetDefault(faults)
		tr, dst := pair(t, net, nil)
		return string(schedule(t, tr, dst, 400))
	}
	first, second := run(42), run(42)
	if first != second {
		t.Fatalf("same seed produced different fault schedules:\n%s\n%s", first, second)
	}
	if run(43) == first {
		t.Fatal("different seeds produced the same 400-call fault schedule")
	}
	// The schedule must actually contain faults of both kinds — and
	// successes — or determinism is vacuous.
	for _, want := range []byte{'.', 'x', 'o'} {
		found := false
		for _, c := range []byte(first) {
			if c == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("schedule %s contains no %q", first, want)
		}
	}
}

func TestDropAndOverloadAreTyped(t *testing.T) {
	net := New(1)
	var served atomic.Int64
	tr, dst := pair(t, net, &served)

	net.SetDefault(Faults{Drop: 1})
	if _, err := tr.CallCtx(context.Background(), dst, &transport.Request{Op: transport.OpPing}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("full drop = %v, want ErrUnreachable", err)
	}
	if served.Load() != 0 {
		t.Fatal("a dropped call reached the peer")
	}
	// A lost reply looks the same to the caller, but the peer ran the op.
	net.SetDefault(Faults{DropReply: 1})
	if _, err := tr.CallCtx(context.Background(), dst, &transport.Request{Op: transport.OpPing}); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("lost reply = %v, want ErrUnreachable", err)
	}
	if served.Load() != 1 {
		t.Fatalf("a call whose reply is lost ran %d times at the peer, want 1", served.Load())
	}
	net.SetDefault(Faults{Overload: 1})
	if _, err := tr.CallCtx(context.Background(), dst, &transport.Request{Op: transport.OpPing}); !errors.Is(err, transport.ErrOverloaded) {
		t.Fatalf("full overload = %v, want ErrOverloaded", err)
	}
	net.SetDefault(Faults{})
	if _, err := tr.CallCtx(context.Background(), dst, &transport.Request{Op: transport.OpPing}); err != nil {
		t.Fatalf("clean link = %v", err)
	}
}

func TestAsymmetricPartitionAndHeal(t *testing.T) {
	net := New(1)
	fabric := transport.NewFabric()
	a, b := fabric.Endpoint(), fabric.Endpoint()
	ok := func(*transport.Request) *transport.Response { return &transport.Response{OK: true} }
	a.Serve(ok)
	b.Serve(ok)
	wa, wb := net.Wrap(a), net.Wrap(b)
	ctx := context.Background()
	ping := &transport.Request{Op: transport.OpPing}

	net.PartitionOneWay([]transport.Addr{a.Addr()}, []transport.Addr{b.Addr()})
	if _, err := wa.CallCtx(ctx, b.Addr(), ping); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("blocked direction = %v, want ErrUnreachable", err)
	}
	if _, err := wb.CallCtx(ctx, a.Addr(), ping); err != nil {
		t.Fatalf("open direction = %v, want success (partition must be asymmetric)", err)
	}

	net.Partition([]transport.Addr{a.Addr()}, []transport.Addr{b.Addr()})
	if _, err := wb.CallCtx(ctx, a.Addr(), ping); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("bidirectional partition, reverse = %v, want ErrUnreachable", err)
	}

	net.Heal()
	if _, err := wa.CallCtx(ctx, b.Addr(), ping); err != nil {
		t.Fatalf("healed = %v", err)
	}
	if got := net.Stats().Blocked; got != 2 {
		t.Fatalf("Stats.Blocked = %d, want 2", got)
	}
}

func TestDuplicationRedelivers(t *testing.T) {
	var served atomic.Int64
	net := New(9)
	net.SetDefault(Faults{Duplicate: 1})
	tr, dst := pair(t, net, &served)
	const calls = 10
	for i := 0; i < calls; i++ {
		if _, err := tr.CallCtx(context.Background(), dst, &transport.Request{Op: transport.OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for served.Load() < 2*calls && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := served.Load(); got != 2*calls {
		t.Fatalf("handler ran %d times for %d duplicated calls, want %d", got, calls, 2*calls)
	}
	if got := net.Stats().Duplicated; got != calls {
		t.Fatalf("Stats.Duplicated = %d, want %d", got, calls)
	}
}

func TestLatencyAndSlowNode(t *testing.T) {
	net := New(5)
	net.SetDefault(Faults{Latency: 2 * time.Millisecond, Jitter: time.Millisecond})
	tr, dst := pair(t, net, nil)
	ctx := context.Background()

	start := time.Now()
	for i := 0; i < 5; i++ {
		if _, err := tr.CallCtx(ctx, dst, &transport.Request{Op: transport.OpPing}); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("5 calls at >=2ms injected latency took %v", elapsed)
	}
	base := net.Stats().Delayed

	net.SlowNode(dst, 8)
	if _, err := tr.CallCtx(ctx, dst, &transport.Request{Op: transport.OpPing}); err != nil {
		t.Fatal(err)
	}
	slowed := net.Stats().Delayed - base
	if slowed < 16*time.Millisecond {
		t.Fatalf("slow-node call injected only %v, want >= 8x base latency", slowed)
	}

	// A cancelled context aborts the injected delay without waiting it out.
	net.SlowNode(dst, 1)
	net.SetDefault(Faults{Latency: time.Hour})
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := tr.CallCtx(cctx, dst, &transport.Request{Op: transport.OpPing}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delayed call under expired ctx = %v, want DeadlineExceeded", err)
	}
}

func TestPlanRunsPhasesInOrder(t *testing.T) {
	net := New(1)
	tr, dst := pair(t, net, nil)
	ctx := context.Background()
	var names []string
	plan := Plan{
		OnPhase: func(ph Phase) { names = append(names, ph.Name) },
		Phases: []Phase{
			{Name: "degrade", Apply: func(n *Network) { n.SetDefault(Faults{Drop: 1}) }},
			{Name: "heal", Apply: func(n *Network) { n.SetDefault(Faults{}) }},
		},
	}
	if err := plan.Run(ctx, net); err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "degrade" || names[1] != "heal" {
		t.Fatalf("phases ran as %v", names)
	}
	if _, err := tr.CallCtx(ctx, dst, &transport.Request{Op: transport.OpPing}); err != nil {
		t.Fatalf("after healing plan: %v", err)
	}

	// Cancellation stops mid-plan and surfaces the context error.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	err := Plan{Phases: []Phase{{Name: "wait", Duration: time.Hour}}}.Run(cctx, net)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled plan = %v, want Canceled", err)
	}
}
