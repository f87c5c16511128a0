// Command perfbench is the repository benchmark: a single-process load
// generator that measures the SMT advisor fleet and the simulator end to
// end, and a separate traced run that times each layer.
//
// Run it from the repository root through its wrapper, which builds it
// from source into .bench_build/:
//
//	bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It starts one in-process internal/router in front of two in-process
// internal/server shards on real loopback listeners, each shard at
// Workers: 1, so simulation concurrency equals the two shards (nproc on
// the 2-vCPU reference host). Every run starts a fresh fleet: result
// caches, flight groups, machine pools and compiled-program caches are
// empty, because a freshly started advisor pays workload-compile and
// machine-build costs too. The output says so on its "run:" line. Every
// input is generated from --seed (sched.go), and the daemons receive only
// the generated requests.
//
// # Workloads
//
// All loops are closed: each client sends its next request only after
// the previous answer, because the callers modelled here (an online SMT
// optimizer, a scheduler, a figure campaign) each wait for a reply.
//
//	workload       loop, clients                    what it sends
//	metric-fleet   closed, 2 clients                POST /v1/metric through the router; snapshots on
//	                                                power7/nehalem/smt8 at every exposed SMT level,
//	                                                half of them repeats of a recent one (LRU hits)
//	analyze-burst  closed, 2 clients, in rounds     POST /v1/analyze through the router; epochs of
//	                                                burst, spread and repeat rounds over EP,
//	                                                Swaptions, MG, Stream, Canneal, SPECjbb_contention
//	place-mix      closed, 1 client                 POST /v1/place; 6-workload Nehalem mixes, each
//	                                                with its own seed (always a cache miss)
//	campaign       closed, experiments.Runner       15 cells (POWER7 SMT1/2/4, Nehalem SMT1/2 over
//	               with Workers: 2, no HTTP         MG, Stream, Equake) on fresh matrices
//
// Why each: metric-fleet is the per-request overhead path (HTTP, JSON,
// router hop, admission, LRU, fingerprint) with no simulation, so an
// engine change should not move it. analyze-burst is dominated by
// simulation at the maximum SMT level, workload compile, the machine pool,
// flight coalescing (burst: one flight plus one coalesced waiter) and
// admission queueing (spread: two keys, queued when both hash to one
// shard); a server-overhead change should barely move it. Its requests
// carry the library spec inline at a quarter of its work, so a run holds
// several epochs. Epoch e gives the benches their rounds in the bench list
// rotated by e, so every seed runs the same benches in the same rounds;
// the seed picks the probe seeds, the round order and the repeats. place-mix is the only user of cpu.RunBatch, per-pair
// instantiation and the placement solver. campaign is the reproduction
// path tier-1 time depends on, the only workload simulating below the
// maximum SMT level and the only user of internal/experiments; a server
// change should not move it.
//
// Runs of metric-fleet and place-mix stop at --seconds. analyze-burst runs
// --seconds/4 whole epochs and campaign --seconds/6 whole sweeps (their
// lengths on the reference host), so their work does not depend on how
// fast the host is. Shards have stable names that a custom
// dialer maps onto their loopback ports, so which shard owns a key depends
// on the request alone: every epoch has one queued and one parallel spread.
// Fleet connections close with a reset rather than lingering in
// TIME_WAIT, so the loopback sockets of one run do not slow the connects
// of the runs after it.
//
// # End-to-end metrics
//
// An untraced run prints, as the last line of standard output, one JSON
// object {correct, attempted, failed, metrics}. Its metrics are the same
// five on every workload:
//
//	setup_s        the workload's own set-up. HTTP workloads: median of 401 fleet bring-ups
//	               (two shards and the router listening, health green through the client).
//	               campaign: median over 51 batches of the time to build one fresh campaign
//	               (its matrices and runner, as every sweep does), 1000 builds per batch
//	ops_per_s      answered requests (campaign: cells) per second: the median over one-second
//	               windows (metric-fleet) or over sweeps (campaign); over the whole run on
//	               analyze-burst, whose epochs differ, and place-mix, about one request a second
//	op_p50_ms      median latency of the workload's operation: a metric call, a fresh analyze
//	               key (its first fresh answer), a placement, a campaign cell
//	cpu_ms_per_op  process CPU time per operation (the load generator included)
//	max_rss_mb     peak resident set of the process
//
// Above that line it prints the workload's own figures by name and unit,
// each timing as a median plus the highest percentile with at least ten
// samples beyond it, with the sample count: ops_failed_frac (failed,
// refused or wrong answers over attempted), metric_rps and metric_p50_us;
// analyze_fresh_p50_s, analyze_hit_p50_us (split by the response cached
// flag) and analyze_wall_s (median epoch makespan); place_p50_s and
// place_pairs_per_s; campaign_s (median sweep) and cell_p50_s; and
// sim_mcycles_per_s, simulated cycles answered per host second, summed
// from response wallCycles, pair wallCycles or cell wall cycles. The host
// line records CPU model, nproc, GOMAXPROCS, Go version and
// host.calib_mops, a fixed integer kernel timed before the workload, so a
// slow host can be told from a slow commit.
//
// # Answer checks
//
// Every answer is checked, and each failure counts into ops_failed_frac
// and the result's failed count:
//
//   - metric-fleet: smtsm.Compute is recomputed on every snapshot sent;
//     the answer must carry the same metric bits, the recommended level of
//     the documented decision rule and the snapshot's fingerprint.
//   - analyze-burst: one fingerprint per key across fresh, coalesced and
//     cached answers; in the traced replay, controller.Prober.Probe and the
//     step-by-step replay must give that same snapshot fingerprint.
//   - place-mix: every thread placed once, at most maxPerCore threads per
//     core, anti-affine workloads apart, and the expected 15 pair scores.
//   - place-mix, traced: the replay's own RunBatch co-run of every pair
//     must end after the wall cycles the engine scored for that pair.
//   - campaign: no failed or skipped cell, and every sweep's cells end
//     after the same wall cycles; in the traced replay, every cell replayed
//     step by step must too.
//
// # Traced run and per-layer metrics
//
// --trace 1 runs the workload on a fresh fleet for a quarter of --seconds
// (analyze-burst: one epoch, which probes every bench once) with a span
// around every client call. It then replays the served requests in
// process through the public entry points of each layer: every fresh
// analyze key, every place request, every campaign cell, and client 0's
// first 2000 metric requests (replayMetricCap; their layer timings are
// microseconds, so that many give steady medians). The workload's own
// replay runs last and twice, untraced and then traced, in a process the
// other replays have warmed up; trace.overhead_frac is the
// traced replay's wall time over the untraced one's, minus one, so it
// prices the spans where they are taken; on the simulating workloads they
// cost far less than the replay's run-to-run jitter, so there the figure
// is noise around zero. The traced replay records a span
// (name, request id, parent, start, end) around every call: api (un)marshal, the shard and router
// Handler().ServeHTTP in memory, Snapshot.Fingerprint, smtsm.Compute,
// workload.Cache.Get and Program.Instantiate, cpu.Pool.Get,
// Machine.RunContext, RunBatch and Counters, Prober.Probe,
// placement.Resolve and Engine.Place, and experiments.Runner cell events.
// Layers the workload does not reach are replayed on a small seeded
// reference set (64 metric requests, one MG analyze key, one placement,
// three POWER7 cells, a two-cell runner sweep), so every per-layer metric
// is reported on every workload.
// Spans stay in memory and are written to
// .bench_build/spans-<workload>-<seed>.jsonl when the run ends; the
// summary prints each span name's total and self time (its duration minus
// the union of its children's intervals). Spans inside the program
// (engine stages, server phases) are not recorded.
//
// Each layer metric, the end-to-end figure it should move, and where the
// prediction is no change:
//
//	layer metric                                 moves                          on              no change on
//	api.decode_us, api.encode_us                 metric_p50_us                  metric-fleet    analyze-burst
//	client.overhead_us (client − router)         metric_p50_us                  metric-fleet    campaign
//	router.hop_us (router − shard hit)           metric_p50_us, metric_rps      metric-fleet    campaign
//	router.fallback_total, .forward_failures     ops_failed_frac                all served      -
//	router.shard_share_max                       analyze_wall_s                 analyze-burst   -
//	server.metric_handler_us                     metric_p50_us                  metric-fleet    analyze-burst
//	server.cache_hit_rate                        metric_rps, analyze_hit_p50    metric-fleet,   -
//	                                                                            analyze-burst
//	server.probes_per_fresh_key, coalesced_total analyze_wall_s                 analyze-burst   metric-fleet
//	server.peak_active_workers, shed, timeout    ops_failed_frac,               analyze-burst   -
//	                                             analyze_fresh_p50_s
//	counters.fingerprint_ns                      metric_p50_us                  metric-fleet    campaign
//	smtsm.compute_ns                             metric_p50_us                  metric-fleet    analyze-burst
//	workload.compile_ms, .instantiate_us,        analyze_fresh_p50_s,           analyze-burst,  metric-fleet
//	workload.cache_hit_rate                      place_p50_s                    place-mix
//	cpu.pool_get_us, cpu.pool_hit_rate           analyze_fresh_p50_s            analyze-burst   metric-fleet
//	cpu.run_mcycles_per_s.smt4                   analyze_fresh_p50_s,           analyze-burst   metric-fleet
//	                                             sim_mcycles_per_s
//	cpu.run_mcycles_per_s.smt1, .smt2            campaign_s                     campaign        metric-fleet
//	cpu.run_allocs_per_mcycle                    sim_mcycles_per_s              analyze-burst,  -
//	                                                                            campaign
//	cpu.batch_mcycles_per_s                      place_p50_s, place_pairs_per_s place-mix       analyze-burst
//	controller.probe_s, controller.self_ms       analyze_fresh_p50_s            analyze-burst   place-mix
//	placement.resolve_us, .place_s, .pairs_per_s place_p50_s                    place-mix       analyze-burst
//	experiments.cell_s, .runner_util             campaign_s                     campaign        metric-fleet
//
// Counter metrics (router.*, server.* counts and rates) are the
// /debug/vars counters of the traced pass's fresh fleet; campaign has no
// fleet and reads the reference replay's. server.probes_per_fresh_key is
// fresh keys over probes (place-mix: placements); metric-fleet and
// campaign probe nothing, so they send one reference burst (both clients,
// one MG key) to a fresh fleet and report 1 over the probes it ran. workload.cache_hit_rate and
// cpu.pool_hit_rate come from the shards when they simulated, else from
// the replay's own cache and pool. controller.self_ms is Prober.Probe
// minus the step replay's child calls on the same key, so its noise floor
// is cpu.run's jitter. host.calib_mops is reported in traced runs too.
//
// The checked-in engine-grid artifacts and scripts/benchgate are left as
// they are: they stay the engine's event/scan gate. This benchmark adds
// absolute throughput, the HTTP path, placement and the campaign.
package main
