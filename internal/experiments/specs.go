package experiments

import "masterparasite/internal/artifact"

// Shared parameter declarations. Specs sharing a name must agree on
// the declaration (the registry enforces it), and frontends expose one
// flag per name.
var (
	paramSites    = artifact.Param{Name: "sites", Usage: "corpus size for fig3/fig5 (paper: 15000)", Default: 3000, Min: 1}
	paramDays     = artifact.Param{Name: "days", Usage: "study length in days for fig3", Default: 100, Min: 1}
	paramSeed     = artifact.Param{Name: "seed", Usage: "corpus seed for fig3/fig5", Default: 1, Min: 1}
	paramPayload  = artifact.Param{Name: "payload", Usage: "C&C payload bytes for the throughput run", Default: 64 * 1024, Min: 1}
	paramAttempts = artifact.Param{Name: "attempts", Usage: "injection attempts per link profile for conditions", Default: 5, Min: 1}
	paramLANs     = artifact.Param{Name: "lans", Usage: "LAN shards for the fleet/* artifacts", Default: 16, Min: 1}
	paramBots     = artifact.Param{Name: "bots", Usage: "victims per LAN for the fleet/* artifacts", Default: 250, Min: 1}
)

// init self-registers every experiment as an artifact.Spec, in the
// paper's canonical order — the order `-run all` regenerates. This is
// the per-experiment index: frontends discover entry points, params,
// and seeds exclusively through the registry.
func init() {
	for _, s := range []artifact.Spec{
		{
			ID: "table1", Title: "Table I: cache eviction on popular browsers",
			Section: "Table I", Seed: 31, Run: TableI,
		},
		{
			ID: "table2", Title: "Table II: TCP injection across OS and browsers",
			Section: "Table II", Seed: 17, Run: TableII,
		},
		{
			ID: "table3", Title: "Table III: refresh methods vs Cache-API parasites",
			Section: "Table III", Seed: 23, Run: TableIII,
		},
		{
			ID: "table4", Title: "Table IV: caches in the wild (taxonomy + shared-cache infection)",
			Section: "Table IV", Run: TableIV,
		},
		{
			ID: "table5", Title: "Table V: attacks against applications",
			Section: "Table V", Seed: 47, Run: TableV,
		},
		{
			ID: "fig3", Title: "Figure 3: persistency measurement over 100 days",
			Section: "Fig. 3", Run: Figure3,
			Params: []artifact.Param{paramSites, paramDays, paramSeed},
		},
		{
			ID: "fig5", Title: "Figure 5 + §V: security header survey",
			Section: "Fig. 5 / §V", Run: Figure5,
			Params: []artifact.Param{paramSites, paramSeed},
		},
		{
			ID: "cnc", Title: "§VI-C: covert channel throughput",
			Section: "§VI-C", Seed: cncSeed, Run: CNCThroughput,
			Params: []artifact.Param{paramPayload},
		},
		{
			ID: "flows", Title: "Figures 1/2/4: message flows",
			Section: "Fig. 1/2/4", Seed: 77, Run: MessageFlows,
		},
		{
			ID: "countermeasures", Title: "§VIII: countermeasures vs the kill chain",
			Section: "§VIII", Seed: 61, Run: Countermeasures,
		},
		{
			ID: "replay", Title: "Record/replay fingerprint stability",
			Section: "infra", Seed: 97, Run: ReplayStability,
		},
		{
			ID: "conditions", Title: "Kill chain vs network conditions (fault-injection matrix)",
			Section: "robustness", Seed: conditionsSeed, Run: Conditions,
			Params: []artifact.Param{paramAttempts, paramPayload},
		},
		{
			ID: "fleet/infection-curve", Title: "Fleet: infected population vs virtual time",
			Section: "scale", Seed: fleetSeed, Run: InfectionCurve,
			Params: []artifact.Param{paramLANs, paramBots},
		},
		{
			ID: "fleet/cnc-fanout", Title: "Fleet: C&C fan-out goodput and latency vs fleet size",
			Section: "scale", Seed: fleetSeed, Run: CNCFanout,
			Params: []artifact.Param{paramLANs, paramBots},
		},
	} {
		artifact.MustRegister(s)
	}
}
