// The workloads. Each builds its inputs from the seed (timed as
// set-up), measures for Options::seconds, checks the program's outputs
// outside the timed regions, and fills a Result.
#pragma once

#include "bench.hpp"
#include "trace.hpp"

namespace orionbench {

/// Darknet-1 packets replayed closed-loop into a 2-shard ParallelPipeline
/// with a checkpoint at every UTC day edge.
Result run_ingest(const Options& options, Tracer& tracer);
/// One Darknet-2 year from events to tables: dataset build, ODE2+FDE1
/// publication, mmap detection, flow impact and characterization. A
/// traced run ends with probe_serve.
Result run_study(const Options& options, Tracer& tracer);
/// The serve layers: OQP1 load from one generator thread on an in-process
/// serve::Daemon, a ladder of offered rates, then a reference phase at a
/// fixed rate with a generation swap published halfway through. Adds its
/// per-layer metrics, checks and input sizes to `result`, and writes its
/// spans to `<trace_out>.serve.json`.
void probe_serve(const Options& options, Result& result);

}  // namespace orionbench
