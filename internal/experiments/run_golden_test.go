package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"loki/internal/metrics"
	"loki/internal/policy"
	"loki/internal/profiles"
)

// runGolden is the recorded outcome of one Run config. Summary is pinned
// through the %+v rendering of its fields (Go prints float64 in the shortest
// form that round-trips, so the string is exact); Series through a SHA-256
// of the same rendering.
type runGolden struct {
	summary   string
	series    string // hex SHA-256 prefix
	allocates int
	injected  int64
	completed int64
	dropped   int64
	rerouted  int64
	swaps     int64
}

// summaryFields drops Summary's String method so %+v prints every field.
type summaryFields metrics.Summary

func seriesDigest(res *RunResult) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", res.Series)))
	return hex.EncodeToString(sum[:8])
}

// TestRunGolden pins Run's numbers on six configs: the three approaches on
// the traffic tree past its hardware-scaling limit, social media with no early dropping plus
// swap pauses and execution jitter (Loki and the per-task Proteus path), and
// a two-class heterogeneous chain. The roomy solve limit and the disabled
// stall cutoff keep every MILP in its deterministic regime, so the numbers
// do not depend on machine load. Loki runs at a lower peak than the
// baselines because some of its traffic-tree solves between 900 and 1,100
// QPS take several seconds to prove, too close to the limit to pin.
func TestRunGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("six full runs")
	}
	base := func(g RunConfig) RunConfig {
		g.SolveTimeLimit = 10 * time.Second
		g.DisableStall = true
		return g
	}
	social := func(ap Approach) RunConfig {
		return base(RunConfig{
			Graph: profiles.SocialMedia(), Trace: shortTrace(500), Approach: ap, Seed: 5,
			Policy: policy.NoDrop{}, SwapLatencySec: 0.5, ExecJitter: 0.05,
		})
	}
	cases := []struct {
		name string
		cfg  RunConfig
		want runGolden
	}{
		{"tree-loki", base(RunConfig{Graph: profiles.TrafficTree(), Trace: shortTrace(800), Approach: Loki, Seed: 4}), runGolden{
			summary: "{Arrivals:46970 Admitted:0 Shed:0 Completed:43131 Late:2896 Dropped:943 ViolationRatio:0.08173302107728338 MeanAccuracy:0.9797698153662835 MinAccuracy:0.9673033230635448 MeanLatency:0.11455309626804241 MaxLatency:0.682073287636527 MeanServers:11.871494252873564 MinServers:4 MaxServers:19.666666666666668 MeanUtiliz:0.5935747126436782 ClassNames:[] MeanServersByClass:[] CostHours:0 LatencyHistogram:[0 1101 6765 16742 18523 2658 238 0 0 0 0] LatencyP50:0.09523802413092822 LatencyP99:0.47909424379232535}",
			series:  "28cbc00f72877119", allocates: 28,
			injected: 46970, completed: 46027, dropped: 943, rerouted: 673, swaps: 0,
		}},
		{"tree-inferline", base(RunConfig{Graph: profiles.TrafficTree(), Trace: shortTrace(1100), Approach: InferLine, Seed: 4}), runGolden{
			summary: "{Arrivals:64556 Admitted:0 Shed:0 Completed:34788 Late:6812 Dropped:22956 ViolationRatio:0.4611190284404238 MeanAccuracy:1 MinAccuracy:1 MeanLatency:0.16186778442532299 MaxLatency:0.7708272871580917 MeanServers:13.461839080459772 MinServers:6 MaxServers:20 MeanUtiliz:0.6730919540229886 ClassNames:[] MeanServersByClass:[] CostHours:0 LatencyHistogram:[0 1085 4928 11583 17192 3831 2981 0 0 0 0] LatencyP50:0.1279548627268497 LatencyP99:0.9302247567930224}",
			series:  "f032afc5a51c7b45", allocates: 28,
			injected: 64556, completed: 41600, dropped: 22956, rerouted: 0, swaps: 0,
		}},
		{"tree-proteus", base(RunConfig{Graph: profiles.TrafficTree(), Trace: shortTrace(1100), Approach: Proteus, Seed: 4}), runGolden{
			summary: "{Arrivals:64556 Admitted:0 Shed:0 Completed:44233 Late:3225 Dropped:17098 ViolationRatio:0.31481194621723774 MeanAccuracy:0.8232222812825316 MinAccuracy:0.7438178213180635 MeanLatency:0.10969170961457438 MaxLatency:0.7123846729689589 MeanServers:20 MinServers:20 MaxServers:20 MeanUtiliz:1 ClassNames:[] MeanServersByClass:[] CostHours:0 LatencyHistogram:[0 2313 8476 17132 16312 2911 314 0 0 0 0] LatencyP50:0.08776558487041794 LatencyP99:0.4862092064582616}",
			series:  "8d0efbd2e415dc54", allocates: 28,
			injected: 64556, completed: 47458, dropped: 17098, rerouted: 137, swaps: 0,
		}},
		{"social-loki-nodrop", social(Loki), runGolden{
			summary: "{Arrivals:29026 Admitted:0 Shed:0 Completed:24583 Late:4116 Dropped:327 ViolationRatio:0.15306966168262937 MeanAccuracy:1 MinAccuracy:1 MeanLatency:0.12798574811634636 MaxLatency:0.9326079309728001 MeanServers:7.025747126436782 MinServers:2 MaxServers:13.8 MeanUtiliz:0.3512873563218391 ClassNames:[] MeanServersByClass:[] CostHours:0 LatencyHistogram:[0 4995 5742 6120 7726 2973 1143 0 0 0 0] LatencyP50:0.0795138888888889 LatencyP99:0.8744575678040238}",
			series:  "9afafe83a4003a14", allocates: 26,
			injected: 29026, completed: 28699, dropped: 327, rerouted: 0, swaps: 38,
		}},
		{"social-proteus-nodrop", social(Proteus), runGolden{
			summary: "{Arrivals:29026 Admitted:0 Shed:0 Completed:27132 Late:1883 Dropped:11 ViolationRatio:0.06525184317508441 MeanAccuracy:1 MinAccuracy:1 MeanLatency:0.09550089242272197 MaxLatency:0.6306236396804721 MeanServers:20 MinServers:20 MaxServers:20 MeanUtiliz:1 ClassNames:[] MeanServersByClass:[] CostHours:0 LatencyHistogram:[0 4821 6170 8076 8065 1701 182 0 0 0 0] LatencyP50:0.07177129767211492 LatencyP99:0.4841049382716047}",
			series:  "3c5dc6e9d1fdb817", allocates: 26,
			injected: 29026, completed: 29015, dropped: 11, rerouted: 0, swaps: 20,
		}},
		{"hetero-chain", base(RunConfig{
			Graph: profiles.TrafficChain(), Trace: shortTrace(600), Approach: Loki, Seed: 6,
			Classes: []profiles.Class{
				{Name: "fast", Count: 4, Speed: 2.0, CostPerHour: 3},
				{Name: "slow", Count: 10, Speed: 1.0, CostPerHour: 1},
			},
		}), runGolden{
			summary: "{Arrivals:35267 Admitted:0 Shed:0 Completed:30476 Late:4045 Dropped:746 ViolationRatio:0.1358493776051266 MeanAccuracy:0.9970273891562392 MinAccuracy:0.9940285559979121 MeanLatency:0.12278709763366014 MaxLatency:0.6716971714510827 MeanServers:7.844367816091953 MinServers:3 MaxServers:13.2 MeanUtiliz:0.560311986863711 ClassNames:[fast slow] MeanServersByClass:[1.5416666666666667 7.508333333333334] CostHours:0.40444444444444433 LatencyHistogram:[312 2844 6722 10192 10406 3263 782 0 0 0 0] LatencyP50:0.08621713108320252 LatencyP99:0.7792774936061386}",
			series:  "449a033f14e13cf3", allocates: 27,
			injected: 35267, completed: 34521, dropped: 746, rerouted: 28, swaps: 0,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runGolden{
				summary:   fmt.Sprintf("%+v", summaryFields(res.Summary)),
				series:    seriesDigest(res),
				allocates: res.Allocates,
				injected:  res.Injected,
				completed: res.Completed,
				dropped:   res.Dropped,
				rerouted:  res.Rerouted,
				swaps:     res.Swaps,
			}
			if got != c.want {
				t.Errorf("Run diverged from the recorded golden (seed behavior changed)\n got: %#v\nwant: %#v", got, c.want)
			}
		})
	}
}
