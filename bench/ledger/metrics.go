package main

// metricDef describes one reported number. BENCHMARK.json carries name,
// unit, better (and bound, for end-to-end metrics); the rest — the layer,
// whether the value must repeat bit-for-bit on one seed, and which
// end-to-end metric it is expected to move — is the ledger's own record
// and is printed in README.md.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string
	Exact  bool   // a count that repeats bit-for-bit on one seed
	Moves  string // the end-to-end metric and workload it should move
	Source string // e2e = untraced run, peel = in-process replay, probe = unloaded probes, ladder = rate ladder, kernel = microbench
}

// endToEnd is what a user of the service sees. fail_frac (ISSUE 13's eighth
// metric) is always 0 on a correct run, which the benchmark contract
// forbids for a bounded metric; it is the result line's failed/attempted
// and the per-layer client.fail_frac instead. The gated tail is p95, not
// ISSUE 13's p99: p99 from the due time did not repeat within any allowed
// bound (README, "Bounds") and is the per-layer client.p99_ms. The timing
// bounds are the contract's widest, and README records which cells of the
// first two run sets still spread beyond them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.05},
}

var perLayer = []metricDef{
	// client: the generator's own measurements.
	{Name: "client.get_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "probe", Moves: "p50_ms on read_hot, mixed_rate"},
	{Name: "client.get_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "probe", Moves: "p95_ms on read_hot"},
	{Name: "client.put_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "probe", Moves: "p50_ms on mixed_rate"},
	{Name: "client.put_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "probe", Moves: "p95_ms on mixed_rate"},
	{Name: "client.scan_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "probe", Moves: "p50_ms on read_hot"},
	{Name: "client.scan_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "probe", Moves: "p95_ms on read_hot"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "e2e", Moves: "p95_ms on every workload (the tail beyond the gated one)"},
	{Name: "client.p999_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "e2e", Moves: "p95_ms on every workload"},
	{Name: "client.max_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "e2e", Moves: "ops_per_s on fill_fresh, p95_ms on mixed_rate"},
	{Name: "client.stall_frac", Unit: "fraction", Better: "lower", Layer: "client", Source: "e2e", Moves: "ops_per_s on fill_fresh, p95_ms on mixed_rate"},
	{Name: "client.gen_late_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: "ladder", Moves: "validity of p50_ms/p95_ms on mixed_rate"},
	{Name: "client.cpu_us_per_op", Unit: "us", Better: "lower", Layer: "client", Source: "e2e", Moves: "ops_per_s on read_hot, log_batch (shared cores)"},
	{Name: "client.p99_ms.r2500", Unit: "ms", Better: "lower", Layer: "client", Source: "ladder", Moves: "p95_ms on mixed_rate"},
	{Name: "client.p99_ms.r5000", Unit: "ms", Better: "lower", Layer: "client", Source: "ladder", Moves: "p95_ms on mixed_rate"},
	{Name: "client.p99_ms.r10000", Unit: "ms", Better: "lower", Layer: "client", Source: "ladder", Moves: "p95_ms on mixed_rate (the knee)"},
	{Name: "client.max_rate_ok", Unit: "ops/s", Better: "higher", Layer: "client", Source: "ladder", Moves: "p95_ms on mixed_rate"},
	{Name: "client.fail_frac", Unit: "fraction", Better: "lower", Layer: "client", Source: "e2e", Moves: "correctness gate on every workload"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower", Layer: "client", Source: "e2e", Moves: "none (validity of the traced run)"},

	// server: wire codec, connection loops, client.
	{Name: "server.rt_us", Unit: "us", Better: "lower", Layer: "server", Source: "peel", Moves: "p50_ms on every workload"},
	{Name: "server.self_us", Unit: "us", Better: "lower", Layer: "server", Source: "peel", Moves: "ops_per_s, server_cpu_us_per_op on read_hot, log_batch"},
	{Name: "server.codec_ns_per_op", Unit: "ns", Better: "lower", Layer: "server", Source: "kernel", Moves: "server_cpu_us_per_op on read_hot, log_batch"},

	// shard: partition, worker queue, group commit, reader gate, scan merge.
	{Name: "shard.group_depth", Unit: "ops", Better: "higher", Layer: "shard", Source: "e2e", Moves: "ops_per_s on fill_fresh; nothing on mixed_rate"},
	{Name: "shard.commit_wait_frac", Unit: "ratio", Better: "higher", Layer: "shard", Source: "e2e", Moves: "ops_per_s on fill_fresh"},
	{Name: "shard.fast_get_frac", Unit: "fraction", Better: "higher", Layer: "shard", Source: "e2e", Moves: "ops_per_s, p95_ms on read_hot"},
	{Name: "shard.fast_fallback_frac", Unit: "fraction", Better: "lower", Layer: "shard", Source: "e2e", Moves: "p95_ms on read_hot"},
	{Name: "shard.fast_scan_frac", Unit: "fraction", Better: "higher", Layer: "shard", Source: "e2e", Moves: "ops_per_s on read_hot"},
	{Name: "shard.group_fallbacks", Unit: "count", Better: "lower", Layer: "shard", Source: "e2e", Moves: "ops_per_s on fill_fresh"},
	{Name: "shard.imbalance", Unit: "ratio", Better: "lower", Layer: "shard", Source: "e2e", Moves: "p95_ms on read_hot"},
	{Name: "shard.rt_us", Unit: "us", Better: "lower", Layer: "shard", Source: "peel", Moves: "p50_ms on every workload"},
	{Name: "shard.self_us", Unit: "us", Better: "lower", Layer: "shard", Source: "peel", Moves: "p50_ms, server_cpu_us_per_op on mixed_rate"},

	// store: pangolinstore | logstore.
	{Name: "store.apply1_us", Unit: "us", Better: "lower", Layer: "store", Source: "peel", Moves: "p50_ms, server_cpu_us_per_op on mixed_rate"},
	{Name: "store.apply64_us_per_op", Unit: "us", Better: "lower", Layer: "store", Source: "peel", Moves: "ops_per_s on fill_fresh"},
	{Name: "store.view_get_us", Unit: "us", Better: "lower", Layer: "store", Source: "peel", Moves: "ops_per_s on read_hot"},
	{Name: "store.scan64_us", Unit: "us", Better: "lower", Layer: "store", Source: "peel", Moves: "ops_per_s on read_hot"},
	{Name: "store.self_us", Unit: "us", Better: "lower", Layer: "store", Source: "peel", Moves: "server_cpu_us_per_op on mixed_rate"},
	{Name: "store.bytes_per_key", Unit: "B", Better: "lower", Layer: "store", Source: "e2e", Moves: "space_amp on every workload"},
	{Name: "logstore.compactions", Unit: "count", Better: "higher", Layer: "store", Source: "e2e", Moves: "space_amp on log_batch only"},
	{Name: "logstore.segments", Unit: "count", Better: "lower", Layer: "store", Source: "e2e", Moves: "space_amp, server_rss_mb on log_batch only"},
	{Name: "logstore.dead_frac", Unit: "fraction", Better: "lower", Layer: "store", Source: "e2e", Moves: "space_amp on log_batch only"},
	{Name: "logstore.write_amp", Unit: "ratio", Better: "lower", Layer: "store", Source: "e2e", Moves: "ops_per_s on log_batch only"},

	// structures: the workload's kv structure (hashmap under logstore).
	{Name: "structures.insert_us", Unit: "us", Better: "lower", Layer: "structures", Source: "kernel", Moves: "ops_per_s on fill_fresh; nothing on log_batch"},
	{Name: "structures.lookup_us", Unit: "us", Better: "lower", Layer: "structures", Source: "kernel", Moves: "ops_per_s on read_hot; nothing on log_batch"},
	{Name: "structures.remove_us", Unit: "us", Better: "lower", Layer: "structures", Source: "kernel", Moves: "server_cpu_us_per_op on mixed_rate"},
	{Name: "structures.mlpc_over_pmemobj", Unit: "ratio", Better: "lower", Layer: "structures", Source: "kernel", Moves: "ops_per_s on fill_fresh (paper Fig 5 shape)"},
	{Name: "structures.mlpc_over_pmemobjr", Unit: "ratio", Better: "lower", Layer: "structures", Source: "kernel", Moves: "ops_per_s on fill_fresh (paper Fig 5 shape)"},
	{Name: "structures.self_us", Unit: "us", Better: "lower", Layer: "structures", Source: "peel", Moves: "ops_per_s on fill_fresh, server_cpu_us_per_op on mixed_rate"},

	// core: root Tx API, internal/core, mbuf, logrec, alloc.
	{Name: "core.rt_us", Unit: "us", Better: "lower", Layer: "core", Source: "peel", Moves: "server_cpu_us_per_op on mixed_rate, fill_fresh"},
	{Name: "core.tx_alloc64_us", Unit: "us", Better: "lower", Layer: "core", Source: "kernel", Moves: "ops_per_s on fill_fresh"},
	{Name: "core.tx_overwrite64_us", Unit: "us", Better: "lower", Layer: "core", Source: "kernel", Moves: "p50_ms on mixed_rate"},
	{Name: "core.tx_overwrite4k_us", Unit: "us", Better: "lower", Layer: "core", Source: "kernel", Moves: "ops_per_s on fill_fresh (table objects; Fig 3 shape)"},
	{Name: "core.recover_ms", Unit: "ms", Better: "lower", Layer: "core", Source: "e2e", Moves: "none (restart after CRASH)"},
	{Name: "core.mbuf_highwater_kb", Unit: "KB", Better: "lower", Layer: "core", Source: "peel", Moves: "server_rss_mb on fill_fresh"},
	{Name: "core.logged_bytes_per_op", Unit: "B", Better: "lower", Layer: "core", Exact: true, Source: "peel", Moves: "ops_per_s on fill_fresh, server_cpu_us_per_op on mixed_rate"},
	{Name: "core.mod_bytes_per_op", Unit: "B", Better: "lower", Layer: "core", Exact: true, Source: "peel", Moves: "ops_per_s on fill_fresh, server_cpu_us_per_op on mixed_rate"},
	{Name: "core.alloc_bytes_per_op", Unit: "B", Better: "lower", Layer: "core", Exact: true, Source: "peel", Moves: "space_amp on fill_fresh"},
	{Name: "core.objs_per_tx", Unit: "count", Better: "lower", Layer: "core", Exact: true, Source: "peel", Moves: "server_cpu_us_per_op on mixed_rate"},
	// Not exact: the read view re-verifies on a collision in the engine's
	// hashed modification clock, pool UUIDs are random, and the first two
	// run sets differed by one 40-byte object on one seed (README).
	{Name: "core.verified_bytes_per_get", Unit: "B", Better: "lower", Layer: "core", Source: "peel", Moves: "ops_per_s on read_hot"},

	// nvm: the simulated device.
	{Name: "nvm.flushes_per_op", Unit: "count", Better: "lower", Layer: "nvm", Exact: true, Source: "peel", Moves: "p50_ms, server_cpu_us_per_op on mixed_rate; ops_per_s on fill_fresh; nothing on read_hot, log_batch"},
	{Name: "nvm.fences_per_op", Unit: "count", Better: "lower", Layer: "nvm", Exact: true, Source: "peel", Moves: "same as nvm.flushes_per_op"},
	{Name: "nvm.bytes_flushed_per_op", Unit: "B", Better: "lower", Layer: "nvm", Exact: true, Source: "peel", Moves: "same as nvm.flushes_per_op"},
	{Name: "nvm.bytes_written_per_op", Unit: "B", Better: "lower", Layer: "nvm", Exact: true, Source: "peel", Moves: "same as nvm.flushes_per_op"},
	{Name: "nvm.persist_ns_per_line", Unit: "ns", Better: "lower", Layer: "nvm", Source: "kernel", Moves: "server_cpu_us_per_op on fill_fresh, mixed_rate"},

	// kernels.
	{Name: "csum.adler32_gbps", Unit: "GB/s", Better: "higher", Layer: "csum", Source: "kernel", Moves: "server_cpu_us_per_op on fill_fresh, mixed_rate; never log_batch"},
	{Name: "csum.update64_ns", Unit: "ns", Better: "lower", Layer: "csum", Source: "kernel", Moves: "server_cpu_us_per_op on mixed_rate"},
	{Name: "parity.update_gbps", Unit: "GB/s", Better: "higher", Layer: "parity", Source: "kernel", Moves: "server_cpu_us_per_op on fill_fresh"},
	{Name: "parity.update64_ns", Unit: "ns", Better: "lower", Layer: "parity", Source: "kernel", Moves: "server_cpu_us_per_op on mixed_rate"},
	{Name: "parity.overhead_frac", Unit: "fraction", Better: "lower", Layer: "parity", Source: "kernel", Moves: "space_amp on every pangolin workload (the paper's 1%)"},
	{Name: "xor.delta_gbps", Unit: "GB/s", Better: "higher", Layer: "xor", Source: "kernel", Moves: "server_cpu_us_per_op on fill_fresh"},
}

// value is one measured number as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to measured values.
type metricSet map[string]value

// fill builds the reported set from measured numbers, in the order of defs,
// and reports any metric the run did not measure.
func fill(defs []metricDef, got map[string]float64) (metricSet, []string) {
	out := make(metricSet, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			missing = append(missing, d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}
