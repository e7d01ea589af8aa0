// Fuzz-case model: one randomly sampled configuration of a broadcast or
// allgather run — variant, process count, message size, root, runtime
// thresholds and an optional fault-injection plan — derived purely from
// (master seed, case index) so every case replays bit-identically from its
// one-line reproducer (`bsb-fuzz --seed=S --case=K`).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "coll/reduce_ops.hpp"
#include "mpisim/world.hpp"

namespace bsb::fuzz {

/// Every broadcast/allgather/reduction implementation in src/coll and
/// src/core. Each has one row in the collective registry (fuzz/spec.hpp),
/// which holds its shape rules, rank program, contract and closed forms.
enum class Variant : std::uint8_t {
  BcastBinomial,
  BcastScatterRd,
  BcastScatterRingNative,
  BcastScatterRingTuned,
  BcastRingPipelined,
  BcastSmp,
  BcastAuto,
  BcastPersistent,
  AllgatherRingNative,
  AllgatherRingTuned,
  AllgatherRecursiveDoubling,
  AllgatherBruck,
  AllgatherNeighborExchange,
  ReduceScatterRing,
  ReduceScatterBlocks,
  AllreduceRsAgNative,
  AllreduceRsAgTuned,
  AllreduceRecursiveDoubling,
  AllgathervRingNative,
  AllgathervRingTuned,
  AllgatherBruckHier,
  IbcastConcurrent,
  BcastHier,
};

inline constexpr int kNumVariants = 23;

const char* to_string(Variant v) noexcept;
std::optional<Variant> variant_from_string(const std::string& name);

/// All variants, in enum order (for round-robin assignment and CLI help).
std::span<const Variant> all_variants() noexcept;

/// Smallest adjustment of `nranks` (downwards) that satisfies the
/// variant's rank rule (power-of-two / even / >= 2).
int fit_ranks(Variant v, int nranks) noexcept;

struct FuzzCase;

/// Re-establish a case's structural invariants after a field change: clamp
/// nranks to the variant's requirement, wrap/pin the root, and snap nbytes
/// to the block or reduction grain, all by the variant's registry row.
/// Shared by the generator, the shrinker, the verifier sweep and the CLI
/// replay paths.
FuzzCase normalize_case(FuzzCase c);

/// One fully specified run. `seed`/`index` identify the generator draw the
/// case came from; after shrinking they are kept so the report can still
/// name the originating draw while the fields describe the shrunk config.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::uint64_t index = 0;
  Variant variant = Variant::BcastScatterRingTuned;
  int nranks = 2;
  int root = 0;
  std::uint64_t nbytes = 0;         // collective buffer bytes (total)
  std::uint64_t segment_bytes = 0;  // BcastRingPipelined only
  // BcastSmp / AllgatherBruckHier, and BcastHier shapes derived by
  // normalize_case when node_sizes is empty.
  int smp_cores_per_node = 4;
  // Sampled selector thresholds (BcastAuto / BcastPersistent).
  std::uint64_t smsg_limit = 12288;
  std::uint64_t mmsg_limit = 524288;
  bool use_tuned_ring = true;
  // Runtime knobs.
  std::size_t eager_threshold = 65536;
  double watchdog_seconds = 20.0;
  mpisim::FaultConfig faults;  // enabled => hostile interleavings
  // Reduction family only: sampled operator and element type.
  coll::RedOp red_op = coll::RedOp::Sum;
  coll::RedDtype red_dtype = coll::RedDtype::F64;
  // Allgatherv family only: seed of the skewed block-size vector
  // (comm/vchunks.hpp's skewed_counts shared with the verifier and tests).
  std::uint64_t skew_seed = 0;
  // BcastHier only: per-node rank counts (sum == nranks, every entry >= 1).
  // Empty means "derive a uniform shape from smp_cores_per_node".
  std::vector<int> node_sizes;
};

/// Bounds and feature toggles for the generator.
struct GeneratorOptions {
  int min_ranks = 2;
  int max_ranks = 64;
  std::uint64_t max_bytes = 640 * 1024;
  bool faults = true;           // sample fault plans for ~40% of cases
  double watchdog_seconds = 20.0;
};

/// Seed of the case's byte-pattern oracle, a pure function of the draw;
/// initial garbage uses its complement so untouched bytes are detected.
std::uint64_t oracle_seed(const FuzzCase& c) noexcept;

/// Deterministically sample case `index` of run `seed`. Only variants with
/// a legal process count in [min_ranks, max_ranks] are drawn, and the
/// sampled count is rounded into that range by the variant's rank rule.
FuzzCase sample_case(std::uint64_t seed, std::uint64_t index,
                     const GeneratorOptions& opt);

/// Human-readable one-line summary of the configuration.
std::string describe(const FuzzCase& c);

/// The exact replay command for the generator draw that produced `c`.
std::string reproducer(const FuzzCase& c);

/// Replay command with every field spelled out (survives shrinking, which
/// leaves (seed, index) pointing at the original draw).
std::string explicit_reproducer(const FuzzCase& c);

}  // namespace bsb::fuzz
