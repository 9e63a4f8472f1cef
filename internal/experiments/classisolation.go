package experiments

import (
	"fmt"

	"dcqcn/internal/engine"
	"dcqcn/internal/fabric"
	"dcqcn/internal/link"
	"dcqcn/internal/nic"
	"dcqcn/internal/packet"
	"dcqcn/internal/rocev2"
	"dcqcn/internal/simtime"
	"dcqcn/internal/stats"
)

// ClassIsolationResult quantifies §2.3's observation about PFC priority
// classes: they isolate traffic *between* classes, but "flows within the
// same class will still suffer from PFC's limitations".
type ClassIsolationResult struct {
	Scenario     string
	VictimGbps   float64
	IncastTotal  float64
	VictimPauses int64 // XOFF frames for the victim's class at its NIC
}

// ClassIsolation runs a 4:1 PFC-only incast on one traffic class while a
// victim flow to the same receiver rides either the same class or a
// separate one. The switch schedules data classes with DRR so separate
// classes split bandwidth fairly. Expected: the cross-class victim keeps
// its DRR share untouched by the incast's PAUSE storms; the same-class
// victim is dragged into them.
func ClassIsolation(fid Fidelity) []ClassIsolationResult {
	const (
		incastClass = uint8(3)
		otherClass  = uint8(4)
		degree      = 4
	)
	var out []ClassIsolationResult
	for _, sameClass := range []bool{true, false} {
		victimClass := otherClass
		label := "victim on separate class"
		if sameClass {
			victimClass = incastClass
			label = "victim on incast class"
		}
		sim := engine.New(61)
		swCfg := fabric.DefaultConfig()
		swCfg.Marking.KMin = 1 << 40 // PFC only
		swCfg.Marking.KMax = 1 << 40
		swCfg.EgressDRRQuantum = 2 * packet.MaxFrameBytes
		// A small static threshold makes PAUSE storms immediate.
		swCfg.StaticPFCThreshold = 100 * 1000
		sw := fabric.New(sim, 1000, "sw", degree+2, swCfg)

		nics := nic.NewDirectory()
		mkNIC := func(id packet.NodeID, class uint8) *nic.NIC {
			cfg := nic.DefaultConfig()
			cfg.Controller = nic.FixedRateFactory(40 * simtime.Gbps)
			cfg.NPEnabled = false
			cfg.Transport.WindowPackets = 16384
			cfg.Transport.Priority = class
			h := nic.New(sim, id, fmt.Sprintf("h%d", id), cfg, nics)
			link.Connect(sim, h.Port(), sw.Port(int(id-1)), 500*simtime.Nanosecond)
			sw.AddRoute(id, int(id-1))
			return h
		}

		recvID := packet.NodeID(degree + 2)
		var incastNICs []*nic.NIC
		for i := 0; i < degree; i++ {
			incastNICs = append(incastNICs, mkNIC(packet.NodeID(i+1), incastClass))
		}
		victimNIC := mkNIC(packet.NodeID(degree+1), victimClass)
		// Receiver carries both classes.
		mkNIC(recvID, incastClass)

		// Flows open once every NIC exists: OpenFlow builds each flow's
		// receive half on the receiver.
		var incastFlows []*nic.Flow
		for _, h := range incastNICs {
			f := h.OpenFlow(recvID)
			repostLoop(f, 8*1000*1000, func(rocev2.Completion) {})
			incastFlows = append(incastFlows, f)
		}
		victim := victimNIC.OpenFlow(recvID)
		repostLoop(victim, 8*1000*1000, func(rocev2.Completion) {})

		var base, incBase int64
		sim.At(simtime.Time(fid.Warmup), func() {
			base = victim.Stats().BytesSent
			for _, f := range incastFlows {
				incBase += f.Stats().BytesSent
			}
		})
		sim.Run(simtime.Time(fid.Warmup + fid.Duration))

		var incBytes int64
		for _, f := range incastFlows {
			incBytes += f.Stats().BytesSent
		}
		out = append(out, ClassIsolationResult{
			Scenario:     label,
			VictimGbps:   gbps(float64(simtime.RateFromBytes(victim.Stats().BytesSent-base, fid.Duration))),
			IncastTotal:  gbps(float64(simtime.RateFromBytes(incBytes-incBase, fid.Duration))),
			VictimPauses: victimNIC.Port().Stats.PauseRx,
		})
	}
	return out
}

// ClassIsolationTable renders the comparison.
func ClassIsolationTable(results []ClassIsolationResult) string {
	t := stats.Table{Header: []string{"scenario", "victim (Gbps)", "incast total (Gbps)", "victim NIC pauses"}}
	for _, r := range results {
		t.AddRow(r.Scenario,
			fmt.Sprintf("%.2f", r.VictimGbps),
			fmt.Sprintf("%.2f", r.IncastTotal),
			fmt.Sprintf("%d", r.VictimPauses))
	}
	return t.String()
}
