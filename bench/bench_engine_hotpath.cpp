// Engine hot-path microbench: simulated-access throughput (cacheline
// accesses per wall second) for the three canonical access shapes —
// sequential streams on the bulk range API, strided column sweeps, and
// random element-wise loads. The committed BENCH_hotpath.json baseline is
// gated in the nightly bench lane (tools/bench_diff.py, higher-is-better),
// so the fast path cannot silently regress.
//
// Before timing anything, the bench proves the fast path exact: each
// pattern runs once on the batched fast path and once through the
// element-wise reference decomposition (EngineConfig::bulk_fast_path =
// false) on fresh engines — every hardware counter, the epoch count, the
// simulated time and the line state of all three cache levels (tags,
// recency stacks, flags; taken before the end-of-run drain) must match
// bit-for-bit. A mismatch fails the run
// (exit 1) and trips the nightly `counters_identical` exact gate.
//
// Usage: bench_engine_hotpath [--json PATH] [--quick]
//   --quick runs the exactness gate on the small working set and skips the
//   timed sweeps — the PR-lane smoke (seconds, not minutes).
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/table.h"
#include "sim/engine.h"

namespace {

using memdis::sim::Engine;
using memdis::sim::EngineConfig;

constexpr std::size_t kElems = 1 << 21;       ///< 16 MiB of doubles (≫ sim LLC)
constexpr std::size_t kSweeps = 6;            ///< timed passes per pattern
constexpr std::size_t kRandomAccesses = 1 << 21;
constexpr std::size_t kCheckElems = 1 << 17;  ///< equivalence-run working set

struct PatternResult {
  std::uint64_t accesses = 0;  ///< cacheline-granular demand accesses simulated
  double wall_s = 0.0;
  [[nodiscard]] double lines_per_s() const { return static_cast<double>(accesses) / wall_s; }
};

/// Runs `body(eng, range)` against a fresh engine + one allocation and
/// returns the demand accesses it generated and the wall time.
template <typename Body>
PatternResult run_pattern(std::size_t elems, bool fast_path, Body&& body) {
  EngineConfig cfg;
  cfg.bulk_fast_path = fast_path;
  Engine eng(cfg);
  const auto range = eng.alloc(elems * sizeof(double), memdis::memsim::MemPolicy::first_touch(),
                               "hotpath");
  const auto t0 = std::chrono::steady_clock::now();
  body(eng, range);
  eng.finish();
  const auto t1 = std::chrono::steady_clock::now();
  PatternResult r;
  r.accesses = eng.counters().accesses();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

void sequential_body(Engine& eng, const memdis::memsim::VRange& range, std::size_t elems) {
  for (std::size_t s = 0; s < kSweeps; ++s) {
    eng.load_range(range.base, elems * sizeof(double), sizeof(double));
    eng.store_range(range.base, elems * sizeof(double), sizeof(double));
  }
}

void strided_body(Engine& eng, const memdis::memsim::VRange& range, std::size_t elems) {
  // Column sweep over a row-major matrix: stride = one 512-element row.
  constexpr std::size_t kRow = 512;
  const std::size_t rows = elems / kRow;
  for (std::size_t s = 0; s < kSweeps; ++s)
    for (std::size_t col = 0; col < kRow; ++col)
      eng.load_strided(range.base + col * sizeof(double), rows, kRow * sizeof(double),
                       sizeof(double));
}

void random_body(Engine& eng, const memdis::memsim::VRange& range, std::size_t elems,
                 std::size_t accesses) {
  // Element-wise pointer chase: the non-batchable reference pattern.
  memdis::Xoshiro256 rng(12345);
  for (std::size_t i = 0; i < accesses; ++i)
    eng.load(range.base + rng.uniform_below(elems) * sizeof(double), sizeof(double));
}

/// Observable simulation state of a run, for bit-exact comparison.
struct StateDigest {
  memdis::cachesim::HwCounters counters;
  std::size_t epochs = 0;
  double elapsed_s = 0.0;
  memdis::cachesim::CacheHierarchy::Snapshot caches;
};

template <typename Body>
StateDigest digest_run(std::size_t elems, bool fast_path, Body&& body) {
  EngineConfig cfg;
  cfg.bulk_fast_path = fast_path;
  // A small epoch quantum forces many epoch boundaries through the batched
  // runs — the replay path is exactly what this check must cover.
  cfg.epoch_accesses = 100'000;
  Engine eng(cfg);
  const auto range = eng.alloc(elems * sizeof(double), memdis::memsim::MemPolicy::first_touch(),
                               "check");
  body(eng, range);
  StateDigest d;
  d.caches = eng.hierarchy().snapshot_caches();
  eng.finish();
  d.counters = eng.counters();
  d.epochs = eng.epochs().size();
  d.elapsed_s = eng.elapsed_seconds();
  return d;
}

bool digests_equal(const StateDigest& a, const StateDigest& b) {
  return std::memcmp(&a.counters, &b.counters, sizeof(a.counters)) == 0 &&
         a.epochs == b.epochs && a.elapsed_s == b.elapsed_s && a.caches == b.caches;
}

}  // namespace

int main(int argc, char** argv) {
  using memdis::Table;
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    if (arg == "--quick") quick = true;
  }

  memdis::bench::banner("Engine hot path",
                        "bulk access-stream throughput (sequential / strided / random)");

  // ---- exactness gate: fast path vs element-wise reference -------------------
  bool identical = true;
  {
    const auto seq = [&](bool fp) {
      return digest_run(kCheckElems, fp, [](Engine& e, const memdis::memsim::VRange& r) {
        sequential_body(e, r, kCheckElems);
        e.rmw_range(r.base, kCheckElems * sizeof(double), sizeof(double));
        e.store_load_range(r.base, kCheckElems * sizeof(double), sizeof(double));
        // Paired and multi-lane streams over two halves of the buffer.
        const std::uint64_t half = r.base + kCheckElems / 2 * sizeof(double);
        e.load_pair_range(r.base, 4, half, 8, kCheckElems / 4);
        e.store_pair_range(r.base, 8, half, 4, kCheckElems / 4);
        using Lane = Engine::StreamLane;
        const Lane lanes[] = {
            {r.base, 8, 8, Lane::Op::kLoad},
            {half, 8, 8, Lane::Op::kRmw},
            {r.base, 40, 8, Lane::Op::kLoad},
            {half, 8, 8, Lane::Op::kStore},
        };
        e.stream_range(lanes, 4, kCheckElems / 8);
      });
    };
    const auto str = [&](bool fp) {
      return digest_run(kCheckElems, fp, [](Engine& e, const memdis::memsim::VRange& r) {
        strided_body(e, r, kCheckElems);
      });
    };
    identical = digests_equal(seq(true), seq(false)) && digests_equal(str(true), str(false));
  }
  std::cout << "fast path vs element-wise reference (" << memdis::simd::kIsaName
            << " probe): " << (identical ? "bit-identical" : "MISMATCH") << "\n\n";

  if (quick) {
    std::cout << "--quick: exactness gate only, timed sweeps skipped\n";
    return identical ? 0 : 1;
  }

  // ---- timed patterns --------------------------------------------------------
  const auto seq = run_pattern(kElems, true, [](Engine& e, const memdis::memsim::VRange& r) {
    sequential_body(e, r, kElems);
  });
  const auto strided = run_pattern(kElems, true, [](Engine& e, const memdis::memsim::VRange& r) {
    strided_body(e, r, kElems);
  });
  const auto random = run_pattern(kElems, true, [](Engine& e, const memdis::memsim::VRange& r) {
    random_body(e, r, kElems, kRandomAccesses);
  });

  Table t({"pattern", "accesses", "wall (s)", "Mlines/s"});
  const auto row = [&](const char* name, const PatternResult& r) {
    t.add_row({name, std::to_string(r.accesses), Table::num(r.wall_s, 3),
               Table::num(r.lines_per_s() / 1e6, 2)});
  };
  row("sequential", seq);
  row("strided", strided);
  row("random", random);
  t.print(std::cout);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"engine_hotpath\",\n"
       << "  \"hardware_concurrency\": " << hw << ",\n"
       << "  \"simd_isa\": \"" << memdis::simd::kIsaName << "\",\n"
       << "  \"counters_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"seq_accesses\": " << seq.accesses << ",\n"
       << "  \"seq_lines_per_s\": " << seq.lines_per_s() << ",\n"
       << "  \"strided_accesses\": " << strided.accesses << ",\n"
       << "  \"strided_lines_per_s\": " << strided.lines_per_s() << ",\n"
       << "  \"random_accesses\": " << random.accesses << ",\n"
       << "  \"random_lines_per_s\": " << random.lines_per_s() << "\n"
       << "}\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "\nbaseline written to " << json_path << "\n";
  } else {
    std::cout << "\n" << json.str();
  }
  return identical ? 0 : 1;
}
