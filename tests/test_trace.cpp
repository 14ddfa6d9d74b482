// Trace-format unit suite: on-disk round-trips, the periodic detector's
// RLE boundaries, corrupt-input rejection, replay exactness against the
// element-wise engine, and the fast-forward tolerance contract.
//
// The replay gate here is deliberately stronger than the sweep-level
// byte-compares in test_determinism: it compares the *engine state* —
// counters, elapsed time, epoch count, and the cache-hierarchy digest —
// between a live instrumented run and its replay, so a coalescing bug
// that happened to cancel out in CSV metrics would still be caught.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "trace/trace.h"
#include "trace/trace_workload.h"
#include "workloads/workload.h"

namespace memdis {
namespace {

namespace fs = std::filesystem;

#if defined(__SANITIZE_ADDRESS__)
#define MEMDIS_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MEMDIS_UNDER_ASAN 1
#endif
#endif

fs::path temp_file(const std::string& name) {
  return fs::path(::testing::TempDir()) / name;
}

/// Engine-state fingerprint for exact live-vs-replay comparison.
struct EngineState {
  cachesim::HwCounters counters;
  double elapsed = 0.0;
  std::uint64_t flops = 0;
  std::size_t epochs = 0;
  std::uint64_t digest = 0;
};

EngineState state_of(sim::Engine& eng) {
  EngineState s;
  s.counters = eng.counters();
  s.elapsed = eng.elapsed_seconds();
  s.flops = eng.total_flops();
  s.epochs = eng.epochs().size();
  s.digest = eng.hierarchy().digest();
  return s;
}

void expect_states_equal(const EngineState& a, const EngineState& b) {
  EXPECT_EQ(a.counters.loads, b.counters.loads);
  EXPECT_EQ(a.counters.stores, b.counters.stores);
  EXPECT_EQ(a.counters.l1_hits, b.counters.l1_hits);
  EXPECT_EQ(a.counters.l2_hits, b.counters.l2_hits);
  EXPECT_EQ(a.counters.l3_hits, b.counters.l3_hits);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.flops, b.flops);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.digest, b.digest);
}

/// Drives `calls` against a fresh engine; when `writer` is non-null it is
/// attached as the trace sink for the duration (detached before finish()).
EngineState drive(const std::function<void(sim::Engine&)>& calls,
                  trace::TraceWriter* writer) {
  sim::Engine eng;
  if (writer != nullptr) eng.set_trace_sink(writer);
  calls(eng);
  if (writer != nullptr) {
    writer->finish();
    eng.set_trace_sink(nullptr);
  }
  eng.finish();
  return state_of(eng);
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

EngineState replay(const trace::TraceData& data) {
  sim::Engine eng;
  trace::TraceReplayWorkload wl(data);
  wl.run(eng);
  eng.finish();
  return state_of(eng);
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
  const EngineState live = drive(calls, &writer);
  const trace::TraceData data = data_from(writer);
  const EngineState replayed = replay(data);
  expect_states_equal(live, replayed);
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
  const EngineState live = drive(calls, &writer);
  const trace::TraceData data = data_from(writer);
  const EngineState replayed = replay(data);
  expect_states_equal(live, replayed);
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

// ---- cached-workload factory ------------------------------------------------

TEST(TraceCache, RecordThenReplayThroughFactory) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "full workload run exceeds the sanitized unit budget";
#endif
  const fs::path dir = fs::path(::testing::TempDir()) / "memdis_factory_cache";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const auto key = trace::trace_cache_path(dir.string(), workloads::App::kBFS, 1, 42);
  EXPECT_FALSE(fs::exists(key));

  // First factory call wraps the live workload and records on run.
  auto rec = trace::make_cached_workload(dir.string(), workloads::App::kBFS, 1, 42);
  EngineState live;
  workloads::WorkloadResult live_result;
  {
    sim::Engine eng;
    live_result = rec->run(eng);
    eng.finish();
    live = state_of(eng);
  }
  EXPECT_TRUE(fs::exists(key));

  // Second factory call loads the trace; replay reproduces engine state
  // and the recorded workload result.
  auto rep = trace::make_cached_workload(dir.string(), workloads::App::kBFS, 1, 42);
  EngineState replayed;
  workloads::WorkloadResult replay_result;
  {
    sim::Engine eng;
    replay_result = rep->run(eng);
    eng.finish();
    replayed = state_of(eng);
  }
  expect_states_equal(live, replayed);
  EXPECT_EQ(live_result.verified, replay_result.verified);
  EXPECT_EQ(live_result.residual, replay_result.residual);
  EXPECT_EQ(live_result.detail, replay_result.detail);
  fs::remove_all(dir);
}

TEST(TraceCache, PoisonedCacheFileThrowsInsteadOfFallingBack) {
  const fs::path dir = fs::path(::testing::TempDir()) / "memdis_poisoned_cache";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto key = trace::trace_cache_path(dir.string(), workloads::App::kHPL, 1, 42);
  std::ofstream(key, std::ios::binary) << "not a trace";
  EXPECT_THROW(
      (void)trace::make_cached_workload(dir.string(), workloads::App::kHPL, 1, 42),
      std::runtime_error);
  fs::remove_all(dir);
}

// ---- fast-forward tolerance contract ----------------------------------------

/// The fast-forward contract (docs/TRACE.md): on a steady periodic stream
/// with a settled resident set, the analytic path must (a) actually engage,
/// (b) keep integer counters exact, and (c) keep epoch-priced time within
/// 0.1% of the bit-exact path. The pre-touch pass is what settles the
/// resident set — fast-forward correctly refuses to engage while
/// first-touch placement is still changing per-epoch state.
TEST(FastForward, SteadyStreamWithinTolerance) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "multi-epoch stream runs exceed the sanitized unit budget";
#endif
  const std::uint64_t bytes = 192ull << 20;
  const auto run_one = [&](bool ff) {
    sim::EngineConfig cfg;
    cfg.fast_forward = ff;
    sim::Engine eng(cfg);
    const auto r = eng.alloc(bytes, memsim::MemPolicy::first_touch(), "a");
    eng.store_range(r.base, bytes, 8);  // settle the resident set
    sim::StreamLane lane{r.base, 8, 8, sim::StreamLane::Op::kLoad};
    for (int rep = 0; rep < 3; ++rep) eng.stream_range(&lane, 1, bytes / 8);
    eng.finish();
    EngineState s = state_of(eng);
    return std::make_pair(s, eng.fast_forwarded_epochs());
  };

  const auto [exact, exact_ff] = run_one(false);
  const auto [fast, fast_ff] = run_one(true);

  EXPECT_EQ(exact_ff, 0u);
  EXPECT_GT(fast_ff, 0u);
  // Integer totals are synthesized in closed form — exact, not approximate.
  EXPECT_EQ(exact.counters.loads, fast.counters.loads);
  EXPECT_EQ(exact.counters.stores, fast.counters.stores);
  EXPECT_EQ(exact.flops, fast.flops);
  EXPECT_EQ(exact.epochs, fast.epochs);
  // Priced time carries the steady-state approximation; the contract caps
  // it at 0.1% of the exact path.
  ASSERT_GT(exact.elapsed, 0.0);
  const double dev = std::abs(fast.elapsed - exact.elapsed) / exact.elapsed;
  EXPECT_LE(dev, 1e-3) << "fast-forward elapsed deviation " << dev;
}

/// Fast-forward defaults off, and the default engine path is bit-exact:
/// EngineConfig's initializer must track the process-wide default.
TEST(FastForward, DefaultsOff) {
  EXPECT_FALSE(sim::fast_forward_default());
  const sim::EngineConfig cfg;
  EXPECT_FALSE(cfg.fast_forward);
}

}  // namespace
}  // namespace memdis
