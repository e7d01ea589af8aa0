// Tests for the differential fuzz harness itself: the generator's
// determinism and structural guarantees, a bounded clean sweep through
// run_case, the sabotage self-test path (detection + shrinking), and the
// reproducer round trip.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>

#include "fuzz/case.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/runner.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/spec.hpp"

namespace bsb::fuzz {
namespace {

bool is_pow2(int n) { return n >= 1 && (n & (n - 1)) == 0; }

bool is_reduce_family(Variant v) { return spec(v).grain == Grain::Reduce; }
bool is_block_allgather(Variant v) { return spec(v).grain == Grain::Block; }
bool is_allgatherv(Variant v) { return spec(v).grain == Grain::Skewed; }
bool is_rootless(Variant v) { return spec(v).rootless; }

bool is_allgather_variant(Variant v) {
  switch (v) {
    case Variant::AllgatherRingNative:
    case Variant::AllgatherRingTuned:
    case Variant::AllgatherRecursiveDoubling:
    case Variant::AllgatherBruck:
    case Variant::AllgatherNeighborExchange:
      return true;
    default:
      return false;
  }
}

TEST(FuzzCaseGenerator, SameSeedAndIndexReplaysBitIdentically) {
  GeneratorOptions opt;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const FuzzCase a = sample_case(0xC0FFEE, i, opt);
    const FuzzCase b = sample_case(0xC0FFEE, i, opt);
    EXPECT_EQ(a.variant, b.variant);
    EXPECT_EQ(a.nranks, b.nranks);
    EXPECT_EQ(a.root, b.root);
    EXPECT_EQ(a.nbytes, b.nbytes);
    EXPECT_EQ(a.segment_bytes, b.segment_bytes);
    EXPECT_EQ(a.eager_threshold, b.eager_threshold);
    EXPECT_EQ(a.faults.enabled, b.faults.enabled);
    EXPECT_EQ(a.faults.seed, b.faults.seed);
    EXPECT_EQ(describe(a), describe(b));
  }
}

TEST(FuzzCaseGenerator, SampledCasesSatisfyStructuralInvariants) {
  GeneratorOptions opt;
  std::set<Variant> seen;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const FuzzCase c = sample_case(7, i, opt);
    seen.insert(c.variant);
    ASSERT_GE(c.nranks, opt.min_ranks) << describe(c);
    ASSERT_LE(c.nranks, opt.max_ranks) << describe(c);
    ASSERT_GE(c.root, 0) << describe(c);
    ASSERT_LT(c.root, c.nranks) << describe(c);
    if (c.variant == Variant::BcastScatterRd ||
        c.variant == Variant::AllgatherRecursiveDoubling) {
      ASSERT_TRUE(is_pow2(c.nranks)) << describe(c);
    }
    if (c.variant == Variant::AllgatherNeighborExchange) {
      ASSERT_EQ(c.nranks % 2, 0) << describe(c);
    }
    if (is_allgather_variant(c.variant)) {
      ASSERT_EQ(c.nbytes % static_cast<std::uint64_t>(c.nranks), 0u)
          << describe(c);
    }
    if (c.variant == Variant::AllreduceRecursiveDoubling) {
      ASSERT_TRUE(is_pow2(c.nranks)) << describe(c);
    }
    if (is_reduce_family(c.variant)) {
      const std::uint64_t grain =
          static_cast<std::uint64_t>(c.nranks) *
          coll::elem_bytes(c.red_dtype);
      ASSERT_EQ(c.nbytes % grain, 0u) << describe(c);
      ASSERT_GT(c.nbytes, 0u) << describe(c);
    }
    if (is_rootless(c.variant)) {
      ASSERT_EQ(c.root, 0) << describe(c);
    }
  }
  // 2000 draws must exercise every variant.
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumVariants));
}

// Narrow process-count ranges must keep every draw inside the range and
// legal for its variant: normalize_case must find nothing to fix.
TEST(FuzzCaseGenerator, NarrowRankRangesDrawOnlyLegalCounts) {
  for (const auto& [lo, hi] :
       {std::pair{5, 7}, std::pair{3, 3}, std::pair{9, 15}}) {
    GeneratorOptions opt;
    opt.min_ranks = lo;
    opt.max_ranks = hi;
    for (std::uint64_t i = 0; i < 500; ++i) {
      const FuzzCase c = sample_case(11, i, opt);
      ASSERT_GE(c.nranks, lo) << describe(c);
      ASSERT_LE(c.nranks, hi) << describe(c);
      const FuzzCase n = normalize_case(c);
      ASSERT_EQ(n.nranks, c.nranks) << describe(c);
      ASSERT_EQ(n.root, c.root) << describe(c);
      ASSERT_EQ(n.nbytes, c.nbytes) << describe(c);
    }
  }
}

TEST(FuzzCaseGenerator, NormalizeCaseRestoresEveryStructuralInvariant) {
  for (const Variant v : all_variants()) {
    FuzzCase c;
    c.variant = v;
    c.nranks = 13;
    c.root = 29;                 // deliberately out of range
    c.nbytes = 997;              // deliberately off-grain
    c.red_dtype = coll::RedDtype::F64;
    const FuzzCase n = normalize_case(c);
    EXPECT_GE(n.nranks, 2) << to_string(v);
    EXPECT_LE(n.nranks, 13) << to_string(v);
    EXPECT_EQ(n.nranks, fit_ranks(v, 13)) << to_string(v);
    EXPECT_GE(n.root, 0) << to_string(v);
    EXPECT_LT(n.root, n.nranks) << to_string(v);
    if (is_rootless(v)) {
      EXPECT_EQ(n.root, 0) << to_string(v);
    }
    if (is_reduce_family(v)) {
      const std::uint64_t grain = static_cast<std::uint64_t>(n.nranks) *
                                  coll::elem_bytes(n.red_dtype);
      EXPECT_EQ(n.nbytes % grain, 0u) << to_string(v);
      EXPECT_GT(n.nbytes, 0u) << to_string(v);
    } else if (is_block_allgather(v)) {
      EXPECT_EQ(n.nbytes % static_cast<std::uint64_t>(n.nranks), 0u)
          << to_string(v);
    } else if (is_allgatherv(v)) {
      // Any byte count is legal for the skewed layouts.
      EXPECT_EQ(n.nbytes, c.nbytes) << to_string(v);
    }
  }
}

TEST(FuzzCaseGenerator, ExplicitReproducerCarriesFamilyFlags) {
  FuzzCase rs;
  rs.variant = Variant::ReduceScatterBlocks;
  rs.nranks = 8;
  rs.nbytes = 8 * 8 * 4;
  rs.red_op = coll::RedOp::Max;
  rs.red_dtype = coll::RedDtype::I32;
  const std::string rs_cmd = explicit_reproducer(rs);
  EXPECT_NE(rs_cmd.find("--op=max"), std::string::npos) << rs_cmd;
  EXPECT_NE(rs_cmd.find("--dtype=i32"), std::string::npos) << rs_cmd;
  EXPECT_EQ(rs_cmd.find("--skew-seed"), std::string::npos) << rs_cmd;

  FuzzCase agv;
  agv.variant = Variant::AllgathervRingTuned;
  agv.nranks = 10;
  agv.nbytes = 997;
  agv.skew_seed = 0xfeedULL;
  const std::string agv_cmd = explicit_reproducer(agv);
  EXPECT_NE(agv_cmd.find("--skew-seed=65261"), std::string::npos) << agv_cmd;
  EXPECT_EQ(agv_cmd.find("--op="), std::string::npos) << agv_cmd;

  FuzzCase hier;
  hier.variant = Variant::AllgatherBruckHier;
  hier.nranks = 12;
  hier.nbytes = 12 * 64;
  hier.smp_cores_per_node = 4;
  const std::string hier_cmd = explicit_reproducer(hier);
  EXPECT_NE(hier_cmd.find("--smp-cores=4"), std::string::npos) << hier_cmd;
}

TEST(FuzzCaseGenerator, FitRanksRoundsDownToLegalCounts) {
  for (int n = 2; n <= 100; ++n) {
    EXPECT_TRUE(is_pow2(fit_ranks(Variant::BcastScatterRd, n)));
    EXPECT_LE(fit_ranks(Variant::BcastScatterRd, n), n);
    EXPECT_EQ(fit_ranks(Variant::AllgatherNeighborExchange, n) % 2, 0);
    EXPECT_LE(fit_ranks(Variant::AllgatherNeighborExchange, n), n);
    EXPECT_EQ(fit_ranks(Variant::BcastBinomial, n), n);
  }
  EXPECT_EQ(fit_ranks(Variant::BcastScatterRd, 0), 2);
}

TEST(FuzzCaseGenerator, VariantNamesRoundTrip) {
  for (const Variant v : all_variants()) {
    const auto back = variant_from_string(to_string(v));
    ASSERT_TRUE(back.has_value()) << to_string(v);
    EXPECT_EQ(*back, v);
  }
  EXPECT_FALSE(variant_from_string("no-such-variant").has_value());
}

// A bounded differential sweep must come back clean: small rank counts and
// sizes keep this fast while still crossing the eager/rendezvous boundary
// and hitting fault-injected cases.
TEST(FuzzRunner, BoundedSweepFindsNoDiscrepancies) {
  GeneratorOptions opt;
  opt.max_ranks = 12;
  opt.max_bytes = 32 * 1024;
  opt.watchdog_seconds = 20.0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const FuzzCase c = sample_case(42, i, opt);
    const RunOutcome out = run_case(c);
    ASSERT_TRUE(out.ok) << describe(c) << "\n  " << out.detail;
    EXPECT_GT(out.messages + (c.nbytes == 0 ? 1 : 0), 0u) << describe(c);
  }
}

TEST(FuzzRunner, SabotageOnlyAppliesToTunedRingVariants) {
  FuzzCase c;
  for (const Variant v : all_variants()) {
    c.variant = v;
    const bool tuned = v == Variant::BcastScatterRingTuned ||
                       v == Variant::AllgatherRingTuned ||
                       v == Variant::AllgathervRingTuned ||
                       v == Variant::AllreduceRsAgTuned;
    EXPECT_EQ(sabotage_applies(c, Sabotage::RingPlanStepOffByOne), tuned)
        << to_string(v);
    EXPECT_EQ(sabotage_applies(c, Sabotage::ReduceScatterDoubleFinal),
              v == Variant::ReduceScatterBlocks)
        << to_string(v);
    EXPECT_FALSE(sabotage_applies(c, Sabotage::None)) << to_string(v);
  }
}

TEST(FuzzRunner, RingPlanOffByOneIsDetectedAndShrinks) {
  FuzzCase c;
  c.variant = Variant::AllgatherRingTuned;
  c.nranks = 8;
  c.root = 0;
  c.nbytes = 8 * 512;
  c.watchdog_seconds = 2.0;

  ASSERT_TRUE(run_case(c).ok) << "baseline must pass unsabotaged";
  const RunOutcome bad = run_case(c, Sabotage::RingPlanStepOffByOne);
  ASSERT_FALSE(bad.ok);
  EXPECT_FALSE(bad.detail.empty());

  const ShrinkResult shrunk = shrink_case(c, Sabotage::RingPlanStepOffByOne);
  EXPECT_LE(shrunk.minimal.nranks, c.nranks);
  EXPECT_LE(shrunk.minimal.nbytes, c.nbytes);
  EXPECT_FALSE(run_case(shrunk.minimal, Sabotage::RingPlanStepOffByOne).ok)
      << "shrunk config must still fail: " << describe(shrunk.minimal);
  EXPECT_FALSE(explicit_reproducer(shrunk.minimal).empty());
}

TEST(FuzzHarness, CleanRunReportsEveryCaseAndNoFailures) {
  HarnessOptions opt;
  opt.seed = 99;
  opt.cases = 60;
  opt.gen.max_ranks = 10;
  opt.gen.max_bytes = 16 * 1024;
  std::ostringstream sink;
  const HarnessReport rep = run_fuzz(opt, sink);
  EXPECT_EQ(rep.cases_run, opt.cases);
  EXPECT_EQ(rep.failures, 0u);
  std::uint64_t covered = 0;
  for (const std::uint64_t n : rep.per_variant) covered += n;
  EXPECT_EQ(covered, opt.cases);
}

TEST(FuzzHarness, SelftestDetectsSabotagedPlan) {
  HarnessOptions opt;
  opt.seed = 3;
  opt.cases = 4;
  opt.gen.max_ranks = 10;
  opt.gen.max_bytes = 16 * 1024;
  std::ostringstream sink;
  EXPECT_TRUE(run_selftest(opt, sink));
  // The report must include both forms of reproducer.
  const std::string log = sink.str();
  EXPECT_NE(log.find("bsb-fuzz"), std::string::npos);
}

}  // namespace
}  // namespace bsb::fuzz
