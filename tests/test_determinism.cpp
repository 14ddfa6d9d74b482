// Determinism regression: scenario artifacts must be byte-identical across
// repeated in-process runs. This guards the engine's epoch-callback path
// (LoI schedule stepping + migration planning happen inside the callback)
// against hidden nondeterminism — iteration over unordered containers,
// uninitialized reads, cross-run state leaks in the runtime — that a single
// golden run cannot catch.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/simd.h"
#include "core/epoch_profile.h"
#include "core/scenario_registry.h"
#include "core/sweep.h"
#include "sim/engine.h"

namespace memdis {
namespace {

/// Scoped override of the engine-wide bulk-fast-path default: everything
/// run inside the scope decomposes range calls into the element-wise
/// reference loops.
class ScopedElementWise {
 public:
  ScopedElementWise() : saved_(sim::bulk_fast_path_default()) {
    sim::set_bulk_fast_path_default(false);
  }
  ~ScopedElementWise() { sim::set_bulk_fast_path_default(saved_); }
  ScopedElementWise(const ScopedElementWise&) = delete;
  ScopedElementWise& operator=(const ScopedElementWise&) = delete;

 private:
  bool saved_;
};

/// Scoped override of the engine-wide link-model default: everything run
/// inside the scope prices fabric links with the chosen model (unless a
/// scenario pins one explicitly, as ext-queue-contention does).
class ScopedLinkModel {
 public:
  explicit ScopedLinkModel(memsim::LinkModelKind kind) : saved_(sim::link_model_default()) {
    sim::set_link_model_default(kind);
  }
  ~ScopedLinkModel() { sim::set_link_model_default(saved_); }
  ScopedLinkModel(const ScopedLinkModel&) = delete;
  ScopedLinkModel& operator=(const ScopedLinkModel&) = delete;

 private:
  memsim::LinkModelKind saved_;
};

struct Artifacts {
  std::string csv;
  std::string json;
};

Artifacts artifacts_of(const std::string& scenario_name, unsigned jobs) {
  const auto* scenario = core::ScenarioRegistry::instance().find(scenario_name);
  EXPECT_NE(scenario, nullptr) << scenario_name;
  core::SweepOptions options;
  options.jobs = jobs;
  const auto result = core::run_scenario(*scenario, options);
  Artifacts out;
  std::ostringstream csv, json;
  result.write_csv(csv);
  result.write_json(json);
  out.csv = csv.str();
  out.json = json.str();
  return out;
}

/// The staged-migration scenario exercises the full epoch-callback stack:
/// per-scan re-pricing, budgets, demotion swaps, and charged transfer time.
TEST(Determinism, ExtStagedMigrationArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-staged-migration", 1);
  const Artifacts second = artifacts_of("ext-staged-migration", 1);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.csv.empty());
}

/// The transient-LoI scenario additionally steps waveforms every epoch and
/// runs the belief-vs-truth planner pair — the paths this PR added.
TEST(Determinism, ExtTransientLoiArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-transient-loi", 1);
  const Artifacts second = artifacts_of("ext-transient-loi", 1);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.json.empty());
}

/// Parallel execution must not change the artifacts either (the sweep
/// engine's contract, re-checked here for a callback-heavy scenario).
TEST(Determinism, TransientLoiParallelMatchesSerial) {
  const Artifacts serial = artifacts_of("ext-transient-loi", 1);
  const Artifacts parallel = artifacts_of("ext-transient-loi", 3);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.json, parallel.json);
}

// ---- bulk fast path vs element-wise reference -------------------------------
// The correctness gate for the range API: a whole scenario run on the
// batched fast path must produce byte-identical CSV/JSON artifacts to the
// same scenario with every range call decomposed into the element-wise
// loop it documents. fig06 covers all six workloads' ported streaming
// passes; ext-transient-loi additionally exercises the epoch-callback
// stack (migration planning + waveform stepping) against batched runs.
//
// Under sanitizers these double-scenario runs overshoot the ctest
// scenario timeout, so they skip there: the sanitized lane still covers
// the fast path through the unit suite and the other scenario tests,
// while the byte-compare gate runs in every non-sanitized lane.

#if defined(__SANITIZE_ADDRESS__)
#define MEMDIS_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MEMDIS_UNDER_ASAN 1
#endif
#endif

TEST(Determinism, Fig06RangeApiMatchesElementWise) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts fast = artifacts_of("fig06", 1);
  Artifacts reference;
  {
    ScopedElementWise element_wise;
    reference = artifacts_of("fig06", 1);
  }
  EXPECT_EQ(fast.csv, reference.csv);
  EXPECT_EQ(fast.json, reference.json);
  EXPECT_FALSE(fast.csv.empty());
}

TEST(Determinism, TransientLoiRangeApiMatchesElementWise) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double scenario run exceeds the sanitized scenario timeout";
#endif
  const Artifacts fast = artifacts_of("ext-transient-loi", 1);
  Artifacts reference;
  {
    ScopedElementWise element_wise;
    reference = artifacts_of("ext-transient-loi", 1);
  }
  EXPECT_EQ(fast.csv, reference.csv);
  EXPECT_EQ(fast.json, reference.json);
}

// ---- SIMD probe vs forced scalar --------------------------------------------
// The correctness gate for the vectorized way scan (common/simd.h): a whole
// scenario run with the wide tag-compare/argmin probes must produce
// byte-identical artifacts to the same scenario with the runtime kill
// switch forcing the scalar loops. In a -DMEMDIS_SIMD=OFF build both runs
// take the scalar path and the test degenerates to the reproducibility
// check.

/// Scoped override of the probe kill switch: everything run inside the
/// scope uses the scalar way loops.
class ScopedScalarProbe {
 public:
  ScopedScalarProbe() : saved_(simd_enabled()) { set_simd_enabled(false); }
  ~ScopedScalarProbe() { set_simd_enabled(saved_); }
  ScopedScalarProbe(const ScopedScalarProbe&) = delete;
  ScopedScalarProbe& operator=(const ScopedScalarProbe&) = delete;

 private:
  bool saved_;
};

TEST(Determinism, Fig06SimdProbeMatchesForcedScalar) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts wide = artifacts_of("fig06", 1);
  Artifacts scalar;
  {
    ScopedScalarProbe forced;
    scalar = artifacts_of("fig06", 1);
  }
  EXPECT_EQ(wide.csv, scalar.csv);
  EXPECT_EQ(wide.json, scalar.json);
  EXPECT_FALSE(wide.csv.empty());
}

// ---- queue model vs LoI closed form -----------------------------------------
// The compat half of `--link-model`: scenarios without bulk traffic carry
// zero cross-class rates, so running them under the queue model must
// reproduce the closed-form artifacts byte for byte (fig06 covers all six
// workloads with no migration runtime attached). Conversely, pinning the
// default to kLoi must be a no-op for a planner-heavy scenario — the
// closed-form path is untouched by the queue refactor.

TEST(Determinism, Fig06QueueModelMatchesLoiModel) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts loi = artifacts_of("fig06", 1);
  Artifacts queued;
  {
    ScopedLinkModel queue_mode(memsim::LinkModelKind::kQueue);
    queued = artifacts_of("fig06", 1);
  }
  EXPECT_EQ(loi.csv, queued.csv);
  EXPECT_EQ(loi.json, queued.json);
  EXPECT_FALSE(loi.csv.empty());
}

TEST(Determinism, TransientLoiExplicitLoiModelIsDefault) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double scenario run exceeds the sanitized scenario timeout";
#endif
  const Artifacts implicit = artifacts_of("ext-transient-loi", 1);
  Artifacts pinned;
  {
    ScopedLinkModel loi_mode(memsim::LinkModelKind::kLoi);
    pinned = artifacts_of("ext-transient-loi", 1);
  }
  EXPECT_EQ(implicit.csv, pinned.csv);
  EXPECT_EQ(implicit.json, pinned.json);
}

/// The new scenario itself must be reproducible — it layers the queue
/// estimators, self-deferral bookkeeping, and the inflation trace on top
/// of the epoch-callback stack the other determinism tests cover.
TEST(Determinism, ExtQueueContentionArtifactsAreReproducible) {
  const Artifacts first = artifacts_of("ext-queue-contention", 1);
  const Artifacts second = artifacts_of("ext-queue-contention", 2);
  EXPECT_EQ(first.csv, second.csv);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.csv.empty());
}

// ---- epoch-profile repricing vs full simulation -----------------------------
// The correctness gate for `--reprice` (core/epoch_profile.h): a scenario
// run that captures one epoch profile per functional key and re-prices
// every other grid point from it must produce byte-identical artifacts to
// the all-full-simulation run. fig06's axes (app, scale, prefetch) are
// all functional, so it pins the other half of the contract: on a grid
// with no timing axis every point captures and nothing re-prices — the
// flag is a byte-exact no-op. Scenarios whose measure functions sweep an
// LoI axis (ext-cxl, fig10) exercise reprices > 0 in tests/test_reprice.cpp.

/// Scoped override of the repricing switch: clears the profile cache on
/// entry and exit so no capture leaks between tests.
class ScopedReprice {
 public:
  explicit ScopedReprice(bool on) : saved_(core::reprice_enabled()) {
    core::clear_reprice_cache();
    core::set_reprice_enabled(on);
  }
  ~ScopedReprice() {
    core::set_reprice_enabled(saved_);
    core::clear_reprice_cache();
  }
  ScopedReprice(const ScopedReprice&) = delete;
  ScopedReprice& operator=(const ScopedReprice&) = delete;

 private:
  bool saved_;
};

TEST(Determinism, Fig06RepriceMatchesFullSimulation) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts full = artifacts_of("fig06", 1);
  Artifacts repriced;
  {
    ScopedReprice reprice(true);
    repriced = artifacts_of("fig06", 1);
    // Every fig06 axis is functional (the profiler's prefetch on/off pair
    // included), so each eligible run captures and none re-prices: the
    // flag must be a strict byte-exact no-op on such a grid.
    EXPECT_GT(core::reprice_stats().captures, 0u);
    EXPECT_EQ(core::reprice_stats().reprices, 0u);
  }
  EXPECT_EQ(full.csv, repriced.csv);
  EXPECT_EQ(full.json, repriced.json);
  EXPECT_FALSE(full.csv.empty());
}

/// Repricing composes with parallel execution: the two-wave schedule must
/// keep the sweep contract (rows land in grid slots, artifacts identical
/// for any jobs count).
TEST(Determinism, Fig06RepriceParallelMatchesSerial) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  ScopedReprice reprice(true);
  const Artifacts serial = artifacts_of("fig06", 1);
  core::clear_reprice_cache();
  const Artifacts parallel = artifacts_of("fig06", 3);
  EXPECT_EQ(serial.csv, parallel.csv);
  EXPECT_EQ(serial.json, parallel.json);
}

/// Enabling repricing under the queue link model must leave fig06's
/// zero-bulk-traffic collapse to the closed-form artifacts intact (the
/// PR 6 compat guarantee, with the capture path engaged).
TEST(Determinism, Fig06RepriceUnderQueueModelMatchesLoiModel) {
#ifdef MEMDIS_UNDER_ASAN
  GTEST_SKIP() << "double fig06 run exceeds the sanitized scenario timeout";
#endif
  const Artifacts loi = artifacts_of("fig06", 1);
  Artifacts repriced_queue;
  {
    ScopedLinkModel queue_mode(memsim::LinkModelKind::kQueue);
    ScopedReprice reprice(true);
    repriced_queue = artifacts_of("fig06", 1);
  }
  EXPECT_EQ(loi.csv, repriced_queue.csv);
  EXPECT_EQ(loi.json, repriced_queue.json);
}

/// A planner-heavy scenario (migration runtimes, epoch callbacks) never
/// reaches the repricer — enabling it must be a strict no-op there.
TEST(Determinism, ExtStagedMigrationRepriceIsANoOp) {
  const Artifacts off = artifacts_of("ext-staged-migration", 1);
  Artifacts on;
  {
    ScopedReprice reprice(true);
    on = artifacts_of("ext-staged-migration", 1);
    EXPECT_EQ(core::reprice_stats().reprices, 0u);
    EXPECT_EQ(core::reprice_stats().captures, 0u);
  }
  EXPECT_EQ(off.csv, on.csv);
  EXPECT_EQ(off.json, on.json);
}

}  // namespace
}  // namespace memdis
