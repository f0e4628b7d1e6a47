package main

import (
	"testing"

	"loki"
	"loki/internal/engine"
	"loki/internal/trace"
)

// TestStackMatchesPublicAPI pins the benchmark's hand-built stack to what
// loki.NewMulti and AddPipeline build with their shipped defaults: the
// same seed must give the same simulated outcomes, traced or not.
func TestStackMatchesPublicAPI(t *testing.T) {
	const seed = 7
	tr := trace.AzureLike(seed, 12, 10).ScaleToPeak(600)

	ms, err := loki.NewMulti(loki.WithServers(20), loki.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddPipeline(tenantName, loki.TrafficAnalysisPipeline()); err != nil {
		t.Fatal(err)
	}
	if err := ms.FeedAll(map[string]*loki.Trace{tenantName: tr}); err != nil {
		t.Fatal(err)
	}
	if err := ms.Stop(); err != nil {
		t.Fatal(err)
	}
	want, err := ms.Report(tenantName)
	if err != nil {
		t.Fatal(err)
	}

	for _, traced := range []bool{false, true} {
		var rec *recorder
		if traced {
			rec = newRecorder()
		}
		s, err := buildStack(stackConfig{kind: engine.KindSimulated, servers: 20, seed: seed, profileSeed: seed,
			bucketSec: 30, openQPS: tr.QPS[0]}, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.eng.Start(s.control); err != nil {
			t.Fatal(err)
		}
		if err := s.eng.FeedAll([]*trace.Trace{tr}); err != nil {
			t.Fatal(err)
		}
		if err := s.eng.Stop(); err != nil {
			t.Fatal(err)
		}
		got := s.col.Summarize()
		if int64(got.Arrivals) != want.Arrivals || int64(got.Completed) != want.Completed ||
			int64(got.Late) != want.Late || int64(got.Dropped) != want.Dropped ||
			got.MeanAccuracy != want.Accuracy || got.MeanServers != want.MeanServers {
			t.Errorf("traced=%v: stack outcome %d/%d/%d/%d acc %v servers %v, public API %d/%d/%d/%d acc %v servers %v",
				traced, got.Arrivals, got.Completed, got.Late, got.Dropped, got.MeanAccuracy, got.MeanServers,
				want.Arrivals, want.Completed, want.Late, want.Dropped, want.Accuracy, want.MeanServers)
		}
		if traced {
			spans, _ := rec.snapshot()
			if len(spansNamed(spans, "core.step")) == 0 || len(spansNamed(spans, "alloc.allocate")) == 0 {
				t.Errorf("traced stack recorded no control-plane spans")
			}
		}
	}
}
