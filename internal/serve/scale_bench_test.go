package serve

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"gowool/internal/workloads/fibw"
)

// BenchmarkServeClients asks whether a server scales with its clients
// (DESIGN.md §16.1, *Ledger, two clients*). Each client is a closed
// loop of fib(4) Submit + Wait, as serve-tiny-closed runs it, at
// GOMAXPROCS(2):
//
//   - one-client: one client on a two-lane server;
//   - two-clients: two clients on one two-lane server;
//   - two-servers: two clients, each on a one-lane server of its own —
//     the ceiling, where the clients share nothing but the process.
//
// Each client sends b.N requests. The reported req/s counts every
// client's requests over the wall time, and cpus is the process's user
// and system CPU time (getrusage) over the same wall time; ns/op is the
// wall time per b.N and means little. A server whose requests share no
// lock and no written cache line reads two-clients near two-servers. It
// skips itself on one CPU.
func BenchmarkServeClients(b *testing.B) {
	if runtime.NumCPU() < 2 {
		b.Skip("needs two CPUs for two clients")
	}
	job, want := Rec(fibw.Job(4, 1)), fibw.Serial(4)
	for _, c := range []struct {
		name             string
		clients, servers int
	}{{"one-client", 1, 1}, {"two-clients", 2, 1}, {"two-servers", 2, 2}} {
		b.Run(c.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			servers := make([]*Server, c.servers)
			for i := range servers {
				s, err := New(Options{Workers: 2 / c.servers})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				servers[i] = s
			}
			loop := func(n int) {
				var wg sync.WaitGroup
				for k := 0; k < c.clients; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s := servers[k%c.servers]
						for i := 0; i < n; i++ {
							tk, err := s.Submit(context.Background(), "", job)
							if err != nil {
								b.Error(err)
								return
							}
							if v, err := tk.Wait(); err != nil || v != want {
								b.Errorf("fib(4): v=%d err=%v", v, err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			loop(1000) // warm the lanes and the estimator's class
			b.ResetTimer()
			cpu0, t0 := processCPU(b), time.Now()
			loop(b.N)
			wall, cpu := time.Since(t0), processCPU(b)-cpu0
			b.StopTimer()
			b.ReportMetric(float64(c.clients*b.N)/wall.Seconds(), "req/s")
			b.ReportMetric(cpu.Seconds()/wall.Seconds(), "cpus")
		})
	}
}
