package queuesim

import "testing"

func BenchmarkSystemRunCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.QPS = 8000
		cfg.Seconds = 1.5
		Run(cfg)
	}
}

func BenchmarkSystemRunRPUSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		cfg.QPS = 30000
		cfg.Seconds = 1.5
		cfg.RPU, cfg.Split = true, true
		Run(cfg)
	}
}

// BenchmarkTailOverloadPoint runs one overloaded RunTail point on each
// scheduler: the tail-policy workload's RPU 700 kQPS cell (a timeout,
// retry and hedge storm under a queue cap) cut to a tenth of its
// machines and load, over the same 2 s horizon. ns/event is the
// cost of the scheduler plus the event handlers per useful event.
func BenchmarkTailOverloadPoint(b *testing.B) {
	for _, sched := range []Scheduler{SchedCalendar, SchedHeap} {
		b.Run(sched.String(), func(b *testing.B) {
			cfg := TailConfig{Config: DefaultConfig(), Scale: 1, Scheduler: sched,
				Policy: PolicyConfig{TimeoutMs: 100, MaxRetries: 1, BackoffMs: 1, HedgeMs: 50, QueueCap: 10000}}
			cfg.QPS = 70000
			cfg.Seconds = 2
			cfg.Warmup = cfg.Seconds / 4
			cfg.Drain = 2
			cfg.Seed = 7
			cfg.RPU = true
			var events uint64
			for i := 0; i < b.N; i++ {
				m, err := RunTail(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += m.Events
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
