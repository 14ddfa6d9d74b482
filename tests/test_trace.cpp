// Trace-format unit suite: on-disk round-trips, the periodic detector's
// RLE boundaries, corrupt-input rejection, replay exactness against the
// element-wise engine and against a real recorded application, and the
// off-only stubs of the removed fast-forward and replay-cache modes.
//
// The replay gate here is deliberately stronger than the sweep-level
// byte-compares in test_determinism: it compares the *engine state* —
// counters, elapsed time, epoch count, and the cache-hierarchy digest —
// between a live instrumented run and its replay, so a coalescing bug
// that happened to cancel out in CSV metrics would still be caught.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include "common/contract.h"
#include "core/sweep.h"
#include "engine_run.h"
#include "sim/engine.h"
#include "trace/trace.h"
#include "trace/trace_workload.h"
#include "workloads/workload.h"

namespace memdis {
namespace {

namespace fs = std::filesystem;

fs::path temp_file(const std::string& name) {
  return fs::path(::testing::TempDir()) / name;
}

/// Drives `calls` against a fresh engine; when `writer` is non-null it is
/// attached as the trace sink for the duration (detached before finish()).
/// The call script stands for a workload that verified, as data_from()
/// records it.
test::EngineRun drive(const std::function<void(sim::Engine&)>& calls,
                      trace::TraceWriter* writer) {
  sim::Engine eng;
  if (writer != nullptr) eng.set_trace_sink(writer);
  calls(eng);
  if (writer != nullptr) {
    writer->finish();
    eng.set_trace_sink(nullptr);
  }
  workloads::WorkloadResult verified;
  verified.verified = true;
  return test::finish_run(eng, verified);
}

trace::TraceData data_from(trace::TraceWriter& writer) {
  trace::TraceData data;
  data.app = "synthetic";
  data.scale = 1;
  data.seed = 7;
  data.workload_name = "synthetic";
  data.footprint_bytes = 1;
  data.verified = true;
  data.record_count = writer.record_count();
  data.payload = writer.take_payload();
  return data;
}

test::EngineRun replay(const trace::TraceData& data) {
  sim::Engine eng;
  trace::TraceReplayWorkload wl(data);
  return test::finish_run(eng, wl.run(eng));
}

// ---- on-disk round-trip -----------------------------------------------------

TEST(TraceFormat, SaveLoadRoundTripPreservesHeaderAndPayload) {
  trace::TraceWriter writer;
  writer.on_alloc(4096, memsim::MemPolicy::first_touch(), "buf", 0x10000);
  writer.on_range(0, 0x10000, 4096, 8);
  writer.on_strided(true, 0x10000, 16, 128, 8);
  writer.on_pair(false, 0x10000, 8, 0x10800, 4, 32);
  writer.on_phase(true, "solve");
  writer.on_phase(false, "");
  writer.on_free(0x10000);
  writer.finish();

  trace::TraceData data = data_from(writer);
  data.app = "hpl";
  data.scale = 3;
  data.seed = 1234567;
  data.workload_name = "HPL";
  data.footprint_bytes = 123456789;
  data.verified = true;
  data.residual = 1.25e-13;
  data.detail = "||Ax-b|| ok";

  const fs::path path = temp_file("roundtrip.mdtr");
  data.save(path.string());

  std::string error;
  const auto loaded = trace::TraceData::load(path.string(), error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->app, "hpl");
  EXPECT_EQ(loaded->scale, 3);
  EXPECT_EQ(loaded->seed, 1234567u);
  EXPECT_EQ(loaded->workload_name, "HPL");
  EXPECT_EQ(loaded->footprint_bytes, 123456789u);
  EXPECT_TRUE(loaded->verified);
  EXPECT_EQ(loaded->residual, 1.25e-13);
  EXPECT_EQ(loaded->detail, "||Ax-b|| ok");
  EXPECT_EQ(loaded->record_count, data.record_count);
  EXPECT_EQ(loaded->payload, data.payload);

  const auto stats = trace::scan_trace(*loaded, error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->total, data.record_count);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kAlloc)], 1u);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kLoadRange)], 1u);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kStoreStrided)], 1u);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kLoadPair)], 1u);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kPfStart)], 1u);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kPfStop)], 1u);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kFree)], 1u);
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kEnd)], 1u);
}

TEST(TraceFormat, SaveAtomicLeavesNoTempFileBehind) {
  trace::TraceWriter writer;
  writer.finish();
  trace::TraceData data = data_from(writer);

  const fs::path dir = fs::path(::testing::TempDir()) / "memdis_atomic_save";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "t.mdtr";
  data.save_atomic(path.string());

  std::size_t entries = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path(), path);
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
  std::string error;
  EXPECT_TRUE(trace::TraceData::load(path.string(), error).has_value()) << error;
  fs::remove_all(dir);
}

// ---- corrupt-input rejection ------------------------------------------------

TEST(TraceFormat, LoadRejectsMissingFile) {
  std::string error;
  const auto loaded = trace::TraceData::load(
      (fs::path(::testing::TempDir()) / "no_such_trace.mdtr").string(), error);
  EXPECT_FALSE(loaded.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceFormat, LoadRejectsBadMagic) {
  trace::TraceWriter writer;
  writer.finish();
  trace::TraceData data = data_from(writer);
  const fs::path path = temp_file("badmagic.mdtr");
  data.save(path.string());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  std::string error;
  EXPECT_FALSE(trace::TraceData::load(path.string(), error).has_value());
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(TraceFormat, LoadRejectsUnsupportedVersion) {
  trace::TraceWriter writer;
  writer.finish();
  trace::TraceData data = data_from(writer);
  const fs::path path = temp_file("badversion.mdtr");
  data.save(path.string());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);  // u16 LE version follows the 4-byte magic
    f.put(static_cast<char>(99));
    f.put(static_cast<char>(0));
  }
  std::string error;
  EXPECT_FALSE(trace::TraceData::load(path.string(), error).has_value());
  EXPECT_NE(error.find("unsupported trace version"), std::string::npos) << error;
}

TEST(TraceFormat, LoadRejectsTruncatedFile) {
  trace::TraceWriter writer;
  writer.on_range(0, 0x1000, 65536, 8);
  writer.finish();
  trace::TraceData data = data_from(writer);
  const fs::path path = temp_file("truncated.mdtr");
  data.save(path.string());
  fs::resize_file(path, fs::file_size(path) - 3);
  std::string error;
  EXPECT_FALSE(trace::TraceData::load(path.string(), error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(TraceFormat, ScanRejectsCorruptRecord) {
  trace::TraceData data;
  data.record_count = 1;
  data.payload = {0xff};  // opcode far above kTraceOpMax
  std::string error;
  EXPECT_FALSE(trace::scan_trace(data, error).has_value());
  EXPECT_FALSE(error.empty());

  // Element counts of 2^62 (varint bytes 80..80 40) must be rejected
  // against the bytes left, never sized into an allocation first.
  const std::vector<std::uint8_t> huge = {0x80, 0x80, 0x80, 0x80, 0x80,
                                          0x80, 0x80, 0x80, 0x40};
  std::vector<std::uint8_t> stream = {static_cast<std::uint8_t>(trace::TraceOp::kStream)};
  stream.insert(stream.end(), huge.begin(), huge.end());
  // kAlloc: size varint, placement kind, target tier, then the weight count.
  std::vector<std::uint8_t> alloc = {static_cast<std::uint8_t>(trace::TraceOp::kAlloc), 64, 0, 0};
  alloc.insert(alloc.end(), huge.begin(), huge.end());
  for (const auto& payload : {stream, alloc}) {
    data.payload = payload;
    error.clear();
    EXPECT_FALSE(trace::scan_trace(data, error).has_value());
    EXPECT_NE(error.find("corrupt trace record"), std::string::npos) << error;
  }
}

// ---- periodic detector / RLE boundaries -------------------------------------

TEST(TraceWriterRle, PeriodicPatternFoldsIntoStreamRecord) {
  trace::TraceWriter writer;
  const std::uint64_t a = 1 << 20, b = 2 << 20;
  const std::uint64_t iters = 10000;
  for (std::uint64_t k = 0; k < iters; ++k) {
    writer.on_access(false, a + 8 * k, 8);
    writer.on_access(true, b + 8 * k, 8);
    writer.on_flops(4);
  }
  writer.finish();

  const trace::TraceData data = data_from(writer);
  std::string error;
  const auto stats = trace::scan_trace(data, error);
  ASSERT_TRUE(stats.has_value()) << error;
  // 30k simple events must collapse to a handful of records: the window
  // prefix that seeds detection, one kStream carrying (almost) all
  // iterations, and at most a partial-period tail.
  EXPECT_GE(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kStream)], 1u);
  EXPECT_GT(stats->stream_iterations, iters - 64);
  EXPECT_LT(stats->total, 200u);
}

TEST(TraceWriterRle, AdjacentFlopsCoalesce) {
  trace::TraceWriter writer;
  for (int i = 0; i < 1000; ++i) writer.on_flops(3);
  writer.on_access(false, 4096, 8);  // forces the pending flops to drain
  writer.finish();
  const trace::TraceData data = data_from(writer);
  std::string error;
  const auto stats = trace::scan_trace(data, error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_EQ(stats->by_op[static_cast<std::size_t>(trace::TraceOp::kFlops)], 1u);
}

/// The exactness gate for every coalescing boundary at once: a stream that
/// enters periodic mode, breaks the pattern mid-period, resumes with a
/// different period, and ends on a partial iteration must replay into
/// bit-identical engine state. Pattern breaks are where the writer's
/// partial-prefix replay logic runs; this is its regression test.
TEST(TraceWriterRle, ReplayOfBoundaryHeavyStreamMatchesLive) {
  const auto calls = [](sim::Engine& eng) {
    const auto r = eng.alloc(8 << 20, memsim::MemPolicy::first_touch(), "buf");
    const std::uint64_t base = r.base;
    // Period-2 pattern, long enough to activate streaming...
    for (std::uint64_t k = 0; k < 5000; ++k) {
      eng.load(base + 16 * k, 8);
      eng.store(base + 16 * k + 8, 8);
    }
    // ...broken mid-period (a lone load where a store was due)...
    eng.load(base + 123, 4);
    // ...then a period-3 pattern with flops in the loop body...
    for (std::uint64_t k = 0; k < 4000; ++k) {
      eng.load(base + 24 * k, 8);
      eng.load(base + 24 * k + 8, 8);
      eng.flops(10);
    }
    // ...ending on a partial iteration.
    eng.load(base + 24 * 4000, 8);
    // Irregular tail: LCG addresses never enter streaming mode.
    std::uint64_t x = 12345;
    for (int k = 0; k < 2000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      eng.load(base + (x % (8 << 20)) / 8 * 8, 8);
    }
    eng.free(r);
  };

  trace::TraceWriter writer;
  const test::EngineRun live = drive(calls, &writer);
  const trace::TraceData data = data_from(writer);
  test::expect_same_run(live, replay(data));
}

/// Bulk calls pass through verbatim (no re-coalescing): replaying a mix of
/// range/strided/pair/stream/phase calls reproduces engine state exactly.
TEST(TraceWriterRle, ReplayOfBulkCallsMatchesLive) {
  const auto calls = [](sim::Engine& eng) {
    const auto r = eng.alloc(16 << 20, memsim::MemPolicy::first_touch(), "bulk");
    eng.pf_start("phase-a");
    eng.store_range(r.base, 4 << 20, 8);
    eng.load_range(r.base, 4 << 20, 8);
    eng.rmw_range(r.base, 1 << 20, 8);
    eng.store_load_range(r.base + (4 << 20), 1 << 20, 8);
    eng.load_strided(r.base, 4096, 256, 8);
    eng.store_pair_range(r.base, 8, r.base + (8 << 20), 4, 10000);
    sim::StreamLane lanes[2] = {
        {r.base, 16, 8, sim::StreamLane::Op::kLoad},
        {r.base + (2 << 20), 16, 8, sim::StreamLane::Op::kStore},
    };
    eng.stream_range(lanes, 2, 50000);
    eng.pf_stop();
    eng.free(r);
  };

  trace::TraceWriter writer;
  const test::EngineRun live = drive(calls, &writer);
  const trace::TraceData data = data_from(writer);
  test::expect_same_run(live, replay(data));
}

TEST(TraceReplay, DivergingAllocationFailsLoudly) {
  trace::TraceWriter writer;
  // Recorded base 0xdeadbeef000 cannot match the bump allocator's first
  // allocation in a fresh engine.
  writer.on_alloc(4096, memsim::MemPolicy::first_touch(), "buf", 0xdeadbeef000);
  writer.finish();
  const trace::TraceData data = data_from(writer);
  sim::Engine eng;
  trace::TraceReplayWorkload wl(data);
  EXPECT_THROW(wl.run(eng), std::runtime_error);
}

// ---- real-app record/replay --------------------------------------------------

/// The path `memdis trace record` / `memdis trace replay` takes, on a real
/// workload: TraceRecordWorkload over BFS writes a .mdtr file, TraceData::load
/// reads it back, and TraceReplayWorkload must reproduce the live engine
/// state and the recorded WorkloadResult exactly. Run under both link
/// models; the trace itself is model-agnostic (it records the call stream,
/// not its pricing), so both recordings must be the same bytes.
TEST(TraceReplay, RecordedAppReplaysBitIdentical) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "full workload runs exceed the sanitized unit budget";
#endif
  std::vector<std::uint8_t> first_payload;
  for (const auto model : {memsim::LinkModelKind::kLoi, memsim::LinkModelKind::kQueue}) {
    SCOPED_TRACE(model == memsim::LinkModelKind::kLoi ? "loi" : "queue");
    sim::EngineConfig cfg;
    cfg.link_model = model;
    const fs::path path = temp_file("memdis_bfs_roundtrip.mdtr");
    fs::remove(path);

    trace::TraceRecordWorkload recorder(workloads::make_workload(workloads::App::kBFS, 1, 42),
                                        "BFS", 1, 42, path.string());
    test::EngineRun live;
    {
      sim::Engine eng(cfg);
      live = test::finish_run(eng, recorder.run(eng));
    }

    std::string error;
    auto data = trace::TraceData::load(path.string(), error);
    ASSERT_TRUE(data.has_value()) << error;
    if (first_payload.empty()) {
      first_payload = data->payload;
    } else {
      EXPECT_EQ(first_payload, data->payload);
    }

    trace::TraceReplayWorkload replayer(std::move(*data));
    EXPECT_TRUE(replayer.functional_id().empty());
    sim::Engine eng(cfg);
    test::expect_same_run(live, test::finish_run(eng, replayer.run(eng)));
    EXPECT_TRUE(live.result.verified);
    fs::remove(path);
  }
}

// ---- removed modes ------------------------------------------------------------

/// Fast-forward, the sweep replay cache, the process-wide bulk-path and
/// link-model defaults and the process-wide repricing switch are gone;
/// their setters and the fast_forward field survive only as stubs. The one remaining value is accepted and reads
/// back; anything else is a contract violation.
TEST(RemovedModes, StubsAcceptOnlyOff) {
  EXPECT_THROW(sim::set_fast_forward_default(true), contract_violation);
  sim::EngineConfig cfg;
  cfg.fast_forward = true;
  EXPECT_THROW(sim::Engine{cfg}, contract_violation);
  EXPECT_THROW(core::set_replay_cache_dir("x"), contract_violation);
  EXPECT_THROW(sim::set_bulk_fast_path_default(false), contract_violation);
  EXPECT_THROW(sim::set_link_model_default(memsim::LinkModelKind::kQueue), contract_violation);
  EXPECT_THROW(core::set_reprice_enabled(true), contract_violation);

  sim::set_fast_forward_default(false);
  core::set_replay_cache_dir("");
  sim::set_bulk_fast_path_default(true);
  sim::set_link_model_default(memsim::LinkModelKind::kLoi);
  core::set_reprice_enabled(false);
  core::clear_reprice_cache();
  EXPECT_FALSE(core::reprice_enabled());
  EXPECT_EQ(core::reprice_cache_size(), 0u);
  EXPECT_EQ(core::reprice_stats().captures, 0u);
  EXPECT_EQ(core::reprice_stats().reprices, 0u);
  EXPECT_FALSE(sim::fast_forward_default());
  EXPECT_TRUE(core::replay_cache_dir().empty());
  EXPECT_TRUE(sim::bulk_fast_path_default());
  EXPECT_EQ(sim::link_model_default(), memsim::LinkModelKind::kLoi);
  EXPECT_EQ(core::SweepSpec{}.link_model, memsim::LinkModelKind::kLoi);
  const sim::EngineConfig defaults;
  EXPECT_FALSE(defaults.fast_forward);
  EXPECT_TRUE(defaults.bulk_fast_path);
  EXPECT_EQ(defaults.link_model, memsim::LinkModelKind::kLoi);
  EXPECT_EQ(core::RunConfig{}.link_model, memsim::LinkModelKind::kLoi);
  sim::Engine eng(defaults);
  eng.finish();
}

}  // namespace
}  // namespace memdis
