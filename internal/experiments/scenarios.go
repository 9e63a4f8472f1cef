package experiments

import (
	"fmt"

	"dcqcn/internal/core"
	"dcqcn/internal/harness"
	"dcqcn/internal/packet"
	"dcqcn/internal/simtime"
	"dcqcn/internal/topology"
)

// This file is the one way to run a packet-level experiment or
// ablation: each is a registered harness.Scenario whose grid points are
// the paper's x-axes (modes, incast degrees, parameter values) and
// whose seeds are run indices. Each scenario run builds its own
// engine.Sim from the seed and returns machine-readable metrics plus
// the engine digest, so the harness can fan runs out over every core
// and gate on determinism, and the claim tests read the same metrics.

// modeLabel names a mode for grid-point labels and artifact keys.
func modeLabel(m Mode) string {
	switch m {
	case ModePFCOnly:
		return "no-dcqcn"
	case ModeDCQCN:
		return "dcqcn"
	case ModeDCQCNNoPFC:
		return "dcqcn-no-pfc"
	case ModeDCQCNMisconfigured:
		return "dcqcn-misconfigured"
	default:
		return fmt.Sprintf("mode-%d", int(m))
	}
}

// RegisterAll registers every scenario family with reg: the packet-level
// evaluation, the chaos suite and the hybrid scenarios. Every CLI that
// resolves scenario names calls it, so all of them accept the same set.
func RegisterAll(reg *harness.Registry, fid Fidelity) {
	RegisterScenarios(reg, fid)
	RegisterChaosScenarios(reg, fid)
	RegisterHybridScenarios(reg, fid)
}

// RegisterScenarios registers the full packet-level evaluation with reg
// at the given fidelity. The number of harness seeds per point is
// fid.Runs.
func RegisterScenarios(reg *harness.Registry, fid Fidelity) {
	seeds := harness.Runs(fid.Runs)

	// Figs. 3 and 8: parking-lot unfairness, PFC only vs DCQCN.
	{
		var points []harness.Point
		for _, m := range []Mode{ModePFCOnly, ModeDCQCN} {
			points = append(points, harness.Point{
				Label: modeLabel(m), Params: map[string]float64{"mode": float64(m)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "unfairness",
			Description: "Figs. 3/8: parking-lot unfairness H1-H4 -> R, per mode",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				mode := Mode(rc.Point.Params["mode"])
				samples, dig := UnfairnessRun(mode, uint64(rc.Seed), fid)
				metrics := harness.Metrics{}
				for i, s := range samples {
					metrics[fmt.Sprintf("h%d_med_gbps", i+1)] = gbps(s.Median())
				}
				adv := 0.0
				for i := 0; i < 3; i++ {
					adv = max(adv, samples[i].Median())
				}
				if adv > 0 {
					metrics["h4_advantage"] = samples[3].Median() / adv
				}
				return harness.RunResult{Metrics: metrics, Digest: dig}
			},
		})
	}

	// Figs. 4 and 9: victim flow vs senders under T3, per mode.
	{
		var points []harness.Point
		for _, m := range []Mode{ModePFCOnly, ModeDCQCN} {
			for _, extra := range []int{0, 1, 2} {
				points = append(points, harness.Point{
					Label:  fmt.Sprintf("%s/t3=%d", modeLabel(m), extra),
					Params: map[string]float64{"mode": float64(m), "senders_t3": float64(extra)},
				})
			}
		}
		reg.Register(harness.Scenario{
			Name:        "victimflow",
			Description: "Figs. 4/9: victim flow under congestion spreading, per mode and T3 senders",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				mode := Mode(rc.Point.Params["mode"])
				extra := int(rc.Point.Params["senders_t3"])
				victim, dig := VictimFlowRun(mode, extra, uint64(extra*100+int(rc.Seed)), fid)
				return harness.RunResult{
					Metrics: harness.Metrics{"victim_med_gbps": gbps(victim.Median())},
					Digest:  dig,
				}
			},
		})
	}

	// Fig. 10: fluid model vs the packet-level implementation.
	reg.Register(harness.Scenario{
		Name:        "fig10",
		Description: "Fig. 10: second-flow rate of the fluid model vs the packet simulator, 2 flows",
		Points:      []harness.Point{{Label: "2-flow"}},
		Seeds:       seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := fig10Run(uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})

	// Fig. 13: parameter-validation microbenchmarks.
	{
		var points []harness.Point
		for c := Fig13Strawman; c <= Fig13Combined; c++ {
			points = append(points, harness.Point{
				Label: c.String(), Params: map[string]float64{"config": float64(c)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "convergence-fig13",
			Description: "Fig. 13: two-sender convergence under four parameter sets",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				res, dig := Fig13Run(Fig13Config(rc.Point.Params["config"]), uint64(rc.Seed), fid)
				return harness.RunResult{
					Metrics: harness.Metrics{
						"mean_diff_gbps":  res.MeanDiff,
						"sum_stddev_gbps": res.SumStdev,
					},
					Digest: dig,
				}
			},
		})
	}

	// §6.1 closing check: K:1 incast sweep on one switch.
	{
		var points []harness.Point
		for _, k := range []int{2, 4, 8, 16, 20} {
			points = append(points, harness.Point{
				Label: fmt.Sprintf("%d:1", k), Params: map[string]float64{"k": float64(k)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "incast",
			Description: "Sec. 6.1: K:1 incast utilization, queue p99 and losslessness",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				p, dig := IncastRun(int(rc.Point.Params["k"]), uint64(rc.Seed), fid)
				return harness.RunResult{
					Metrics: harness.Metrics{
						"total_gbps":   p.TotalGbps,
						"queue_p99_kb": p.QueueP99KB,
						"drops":        float64(p.Drops),
					},
					Digest: dig,
				}
			},
		})
	}

	// Figs. 15/16: benchmark traffic, mode x incast degree.
	{
		var points []harness.Point
		for _, m := range []Mode{ModePFCOnly, ModeDCQCN} {
			for _, d := range []int{2, 6, 10} {
				points = append(points, harness.Point{
					Label:  fmt.Sprintf("%s/incast=%d", modeLabel(m), d),
					Params: map[string]float64{"mode": float64(m), "degree": float64(d)},
				})
			}
		}
		reg.Register(harness.Scenario{
			Name:        "benchmark-fig16",
			Description: "Figs. 15/16: benchmark traffic percentiles and spine PAUSEs, mode x degree",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				cfg := DefaultBenchmarkConfig(Mode(rc.Point.Params["mode"]), int(rc.Point.Params["degree"]))
				r, dig := BenchmarkRun(cfg, uint64(rc.Seed), fid)
				return harness.RunResult{Metrics: r.metrics(), Digest: dig}
			},
		})
	}

	// Fig. 17: 16x user load at a 10:1 incast, 5 pairs without DCQCN vs
	// 80 pairs with it.
	{
		var points []harness.Point
		for _, c := range []struct {
			mode  Mode
			pairs int
		}{{ModePFCOnly, 5}, {ModeDCQCN, 80}} {
			points = append(points, harness.Point{
				Label:  fmt.Sprintf("%s/pairs=%d", modeLabel(c.mode), c.pairs),
				Params: map[string]float64{"mode": float64(c.mode), "pairs": float64(c.pairs)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "fig17",
			Description: "Fig. 17: 16x user load, 5 pairs without DCQCN vs 80 pairs with it, 10:1 incast",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				cfg := DefaultBenchmarkConfig(Mode(rc.Point.Params["mode"]), 10)
				cfg.Pairs = int(rc.Point.Params["pairs"])
				r, dig := BenchmarkRun(cfg, uint64(rc.Seed), fid)
				return harness.RunResult{Metrics: r.metrics(), Digest: dig}
			},
		})
	}

	// Fig. 18: the need for PFC and correct thresholds, 8:1 incast.
	{
		var points []harness.Point
		for _, m := range []Mode{ModePFCOnly, ModeDCQCNNoPFC, ModeDCQCNMisconfigured, ModeDCQCN} {
			points = append(points, harness.Point{
				Label: modeLabel(m), Params: map[string]float64{"mode": float64(m)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "fig18",
			Description: "Fig. 18: four configurations under 8:1 incast benchmark traffic",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				cfg := DefaultBenchmarkConfig(Mode(rc.Point.Params["mode"]), 8)
				r, dig := BenchmarkRun(cfg, uint64(rc.Seed), fid)
				return harness.RunResult{
					Metrics: harness.Metrics{
						"user_p10_gbps":   gbps(r.User.Percentile(10)),
						"incast_p10_gbps": gbps(r.Incast.Percentile(10)),
						"drops":           float64(r.Drops),
					},
					Digest: dig,
				}
			},
		})
	}

	// Fig. 19: bottleneck queue under a 20:1 incast, DCQCN vs DCTCP.
	reg.Register(harness.Scenario{
		Name:        "fig19",
		Description: "Fig. 19: 20:1 incast bottleneck queue percentiles, DCQCN vs DCTCP",
		Points: []harness.Point{
			{Label: "dcqcn", Params: map[string]float64{"dctcp": 0}},
			{Label: "dctcp", Params: map[string]float64{"dctcp": 1}},
		},
		Seeds: seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := fig19Run(int(rc.Point.Params["dctcp"]) != 0, uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})

	// Fig. 20: multi-bottleneck parking lot, cut-off vs RED-like marking.
	reg.Register(harness.Scenario{
		Name:        "fig20",
		Description: "Fig. 20: per-flow throughput in the multi-bottleneck parking lot, cut-off vs RED marking",
		Points: []harness.Point{
			{Label: "cut-off", Params: map[string]float64{"red": 0}},
			{Label: "red", Params: map[string]float64{"red": 1}},
		},
		Seeds: seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := fig20Run(int(rc.Point.Params["red"]) != 0, uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})

	// Ablation: alpha gain g under 16:1 incast.
	{
		var points []harness.Point
		for _, g := range []float64{1.0 / 16, 1.0 / 256} {
			points = append(points, harness.Point{
				Label: fmt.Sprintf("g=1/%d", int(1/g)), Params: map[string]float64{"g": g},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "ablation-g",
			Description: "Ablation: alpha gain g, queue statistics under 16:1 incast",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				m, dig := ablationGRun(rc.Point.Params["g"], uint64(rc.Seed), fid)
				return harness.RunResult{Metrics: m, Digest: dig}
			},
		})
	}

	// Ablation: R_AI under 32:1 incast.
	{
		rais := []simtime.Rate{40 * simtime.Mbps, 20 * simtime.Mbps}
		var points []harness.Point
		for _, rai := range rais {
			points = append(points, harness.Point{
				Label: fmt.Sprintf("rai=%v", rai), Params: map[string]float64{"rai_bps": float64(rai)},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "ablation-rai",
			Description: "Ablation: R_AI vs overshoot at 32:1 incast",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				m, dig := ablationRAIRun(simtime.Rate(rc.Point.Params["rai_bps"]), uint64(rc.Seed), fid)
				return harness.RunResult{Metrics: m, Digest: dig}
			},
		})
	}

	// Ablation: byte-counter- vs timer-dominated rate recovery.
	{
		cases := []struct {
			label string
			bc    int64
			timer simtime.Duration
		}{
			{"byte-counter-dominated", 150e3, 1500 * simtime.Microsecond},
			{"timer-dominated", 10e6, 55 * simtime.Microsecond},
		}
		var points []harness.Point
		for _, c := range cases {
			points = append(points, harness.Point{
				Label: c.label,
				Params: map[string]float64{
					"byte_counter": float64(c.bc),
					"timer_us":     c.timer.Microseconds(),
				},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "ablation-timer",
			Description: "Ablation: byte-counter vs timer dominated recovery (Sec. 5.2)",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				p := core.DefaultParams()
				p.ByteCounter = int64(rc.Point.Params["byte_counter"])
				p.RateTimer = simtime.Duration(rc.Point.Params["timer_us"]) * simtime.Microsecond
				diff, total, dig := twoFlowConvergenceRun(p, uint64(rc.Seed), fid, nil)
				return harness.RunResult{
					Metrics: harness.Metrics{"mean_diff_gbps": diff, "total_gbps": total},
					Digest:  dig,
				}
			},
		})
	}

	// Ablation: CNP priority class.
	{
		points := []harness.Point{
			{Label: "cnp-high-priority", Params: map[string]float64{"data_class": 0}},
			{Label: "cnp-data-class", Params: map[string]float64{"data_class": 1}},
		}
		reg.Register(harness.Scenario{
			Name:        "ablation-cnp",
			Description: "Ablation: CNPs on the high-priority class vs the data class (Sec. 3.3)",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				onData := int(rc.Point.Params["data_class"]) != 0
				diff, total, dig := twoFlowConvergenceRun(core.DefaultParams(), uint64(rc.Seed), fid,
					func(o *topology.Options) {
						if onData {
							o.NIC.CNPPriority = packet.PrioData
						}
					})
				return harness.RunResult{
					Metrics: harness.Metrics{"mean_diff_gbps": diff, "total_gbps": total},
					Digest:  dig,
				}
			},
		})
	}

	// Ablation: line-rate start vs slow start.
	reg.Register(harness.Scenario{
		Name:        "ablation-faststart",
		Description: "Ablation: FCT of a 500 KB transfer, DCQCN line-rate start vs DCTCP slow start (Sec. 3.1)",
		Points: []harness.Point{
			{Label: "dcqcn-line-rate", Params: map[string]float64{"dctcp": 0}},
			{Label: "dctcp-slow-start", Params: map[string]float64{"dctcp": 1}},
		},
		Seeds: seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := fastStartRun(int(rc.Point.Params["dctcp"]) != 0, uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})

	// §7: goodput collapse under non-congestion random loss.
	{
		var points []harness.Point
		for _, rate := range []float64{0, 1e-5, 1e-4, 1e-3} {
			points = append(points, harness.Point{
				Label: fmt.Sprintf("loss=%g", rate), Params: map[string]float64{"loss_rate": rate},
			})
		}
		reg.Register(harness.Scenario{
			Name:        "randomloss",
			Description: "Sec. 7: go-back-N goodput vs random frame loss rate",
			Points:      points,
			Seeds:       seeds,
			Run: func(rc harness.RunContext) harness.RunResult {
				p, dig := RandomLossRun(rc.Point.Params["loss_rate"], uint64(rc.Seed), fid)
				return harness.RunResult{
					Metrics: harness.Metrics{
						"goodput_gbps": p.GoodputGbps,
						"retransmits":  float64(p.Retransmits),
						"timeouts":     float64(p.Timeouts),
					},
					Digest: dig,
				}
			},
		})
	}

	// Extension: DCQCN (ECN) vs the TIMELY (delay) baseline of §3.3.
	// Each point's label is the cc registry name of the algorithm it runs.
	reg.Register(harness.Scenario{
		Name:        "timely-comparison",
		Description: "Extension: 8:1 incast queue, fairness and goodput, DCQCN vs TIMELY (Sec. 3.3)",
		Points:      []harness.Point{{Label: "dcqcn"}, {Label: "timely"}},
		Seeds:       seeds,
		Run: func(rc harness.RunContext) harness.RunResult {
			m, dig := timelyComparisonRun(rc.Point.Label, uint64(rc.Seed), fid)
			return harness.RunResult{Metrics: m, Digest: dig}
		},
	})
}
