// Record/replay workload wrappers over the trace format (trace.h), used by
// `memdis trace record|replay`.
//
// TraceRecordWorkload wraps a live workload: it runs the real numerics with
// a TraceWriter attached as the engine's trace sink, then persists the
// captured stream (plus the workload's own result) to a .mdtr file. The
// wrapped run is bit-identical to an unwrapped one — the sink only observes.
//
// TraceReplayWorkload drives a loaded trace back through the engine's public
// API. It performs no host-side numerics (the recorded WorkloadResult is
// returned verbatim), and the coalesced kStream records ride the engine's
// bulk fast path — that combination is the replay speedup. Replay asserts
// the allocator reproduces every recorded base address, so a trace/engine
// mismatch fails loudly instead of silently skewing the simulation.
#pragma once

#include <memory>
#include <string>

#include "trace/trace.h"
#include "workloads/workload.h"

namespace memdis::trace {

/// Runs `inner` with a recording sink attached and saves the trace to
/// `path` (atomically) after each run. Result, name, and footprint pass
/// through unchanged.
class TraceRecordWorkload : public workloads::Workload {
 public:
  TraceRecordWorkload(std::unique_ptr<workloads::Workload> inner, std::string app,
                      int scale, std::uint64_t seed, std::string path);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  workloads::WorkloadResult run(sim::Engine& eng) override;
  /// Recording only observes — the access stream is the inner workload's.
  [[nodiscard]] std::string functional_id() const override {
    return inner_->functional_id();
  }

 private:
  std::unique_ptr<workloads::Workload> inner_;
  std::string app_;
  int scale_;
  std::uint64_t seed_;
  std::string path_;
};

/// Replays a loaded trace through the engine's public API. Re-entrant: each
/// run() decodes the payload from the start, so harnesses that run one
/// workload instance several times (LoI sensitivity sweeps) work unchanged.
class TraceReplayWorkload : public workloads::Workload {
 public:
  explicit TraceReplayWorkload(TraceData data) : data_(std::move(data)) {}

  [[nodiscard]] std::string name() const override { return data_.workload_name; }
  [[nodiscard]] std::uint64_t footprint_bytes() const override {
    return data_.footprint_bytes;
  }
  /// Throws std::runtime_error on a corrupt payload or when the engine's
  /// allocator returns a base that differs from the recorded one.
  workloads::WorkloadResult run(sim::Engine& eng) override;

  /// A trace file carries no parameter provenance, so a replay keeps the
  /// base class's empty functional id and opts out of repricing.
  [[nodiscard]] const TraceData& data() const { return data_; }

 private:
  TraceData data_;
};

}  // namespace memdis::trace
