// The collective registry: one CollectiveSpec row per Variant, in enum
// order, holding every per-variant fact the fuzz harness and the static
// verifier need — shape rules, the rank program, the initial-ownership
// contract, the closed-form transfer counts, the eager-peak bound, the
// reduction postcondition and which proofs apply. Both sides read rows;
// neither switches on the variant, so a new collective is one row here
// plus its own source file.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bsbutil/intervals.hpp"
#include "comm/comm.hpp"
#include "fuzz/case.hpp"
#include "trace/reduce_flow.hpp"
#include "trace/schedule.hpp"

namespace bsb::fuzz {

/// One rank's program for a fuzz case; identical code drives the symbolic
/// recording, the threaded execution, and the static verifier.
using RankBody = std::function<void(Comm&, std::span<std::byte>)>;

/// Deliberate schedule corruption for the harness self-test: proves the
/// detectors catch exactly the class of bug the pairing invariant guards
/// against. Each row names the one sabotage (if any) that perturbs it.
enum class Sabotage : std::uint8_t {
  None,
  /// plan.step += 1 inside the tuned ring (off-by-one in the special
  /// phase). Perturbs the rows that run the tuned ring with a RingPlanFn.
  RingPlanStepOffByOne,
  /// reduce_scatter_blocks_ring ships every finished chunk TWICE to the
  /// nearest ancestor: values stay correct, but the transfer counts break
  /// and bsb-verify's reduce-flow pass must produce a redundancy witness.
  ReduceScatterDoubleFinal,
  /// bcast_hier leaders deliver the buffer TWICE to every non-leader of
  /// their node: values stay correct, but the intra-node transfer count
  /// doubles and bsb-verify's redundancy pass must produce a witness.
  HierDoubleFanout,
};

/// Closed-form expectation for a recorded schedule. Every row fills
/// `total_sends`; the redundancy fields are unset where the schedule's
/// offsets cannot be dataflow-checked.
struct TransferExpectation {
  std::optional<std::uint64_t> total_sends;
  /// Payload bytes delivered to ranks that already held them. For the
  /// tuned paths this is 0 by construction; for the enclosed (native) ring
  /// and the recursive-doubling allgather running over binomial-scatter
  /// output it is exactly sum_r(block_bytes(r) - own_chunk_bytes(r)).
  std::optional<std::uint64_t> redundant_bytes;
  /// Nonempty messages whose payload was entirely already held.
  std::optional<std::uint64_t> redundant_msgs;
  /// Exact (sends, recvs) per absolute rank; empty means "not constrained
  /// per rank".
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_rank_counts;
};

/// Process counts a row accepts (fit_ranks rounds down to the rule).
enum class RankRule : std::uint8_t { Any, PowerOfTwo, Even };

/// Shape of nbytes, and how a rank's initial bytes are seeded.
enum class Grain : std::uint8_t {
  Byte,    // any size
  Block,   // P | nbytes (uniform blocks)
  Reduce,  // P * elem_bytes(dtype) | nbytes, nbytes > 0; bytes are
           // reduction contributions; reads red_op / red_dtype
  Skewed,  // any size over a skewed block vector; reads skew_seed
};

/// What a reduction row leaves fully reduced on each relative rank `rel`:
/// the reduce-flow proof's required chunk ranges and the byte oracle's
/// checked range.
enum class Reduced : std::uint8_t {
  None,      // not a reduction
  OwnChunk,  // chunk rel
  Block,     // chunks [rel, rel + binomial subtree span)
  All,       // every chunk, folded in ring arrival order
  AllTree,   // the whole buffer, folded as a recursive-doubling tree
};

/// Optional FuzzCase fields a row reads; describe() and
/// explicit_reproducer() print exactly these (plus op/dtype for
/// Grain::Reduce and skew_seed for Grain::Skewed).
inline constexpr unsigned kSegmentField = 1u << 0;   // segment_bytes
inline constexpr unsigned kSmpCoresField = 1u << 1;  // smp_cores_per_node
inline constexpr unsigned kNodesField = 1u << 2;     // node_sizes, use_tuned_ring
inline constexpr unsigned kSelectorField = 1u << 3;  // smsg/mmsg limits, use_tuned_ring

/// Verifier passes beyond the ones every schedule gets (lint, matching,
/// happens-before, transfer counts). The reduce-flow pass runs on
/// Grain::Reduce rows and the eager-bound pass where `eager_bound` is set.
inline constexpr unsigned kDataflowProof = 1u << 0;  // byte coverage + redundancy
inline constexpr unsigned kRotationProof = 1u << 1;  // root-0 plan rotation
inline constexpr unsigned kShmPoolProof = 1u << 2;   // hier fan-out occupancy

struct CollectiveSpec {
  Variant variant{};
  const char* name = nullptr;
  RankRule ranks = RankRule::Any;
  bool rootless = false;  // root pinned to 0
  Grain grain = Grain::Byte;
  unsigned fields = 0;
  Sabotage sabotage = Sabotage::None;
  unsigned proofs = 0;
  Reduced reduced = Reduced::None;
  /// The rank program (make_rank_body), optionally sabotaged.
  RankBody (*body)(const FuzzCase&, Sabotage) = nullptr;
  /// Bytes each rank holds valid BEFORE the collective runs.
  std::vector<IntervalSet> (*contract)(const FuzzCase&) = nullptr;
  /// Closed-form expectation for the case's recorded schedule.
  TransferExpectation (*expect)(const FuzzCase&) = nullptr;
  /// Per-rank (absolute-rank-indexed) upper bound, in bytes, on the eager
  /// high-water mark under a threshold: the sum of every inbound message
  /// of at most threshold bytes, derived from the algorithm's structure
  /// alone, so the greedy high-water of analyze_hb can never exceed it.
  /// Null when the row has no such closed form.
  std::vector<std::uint64_t> (*eager_bound)(const FuzzCase&,
                                            std::uint64_t) = nullptr;
};

/// The row for `v`.
const CollectiveSpec& spec(Variant v) noexcept;

/// Reduce-flow options for a Grain::Reduce case with nbytes > 0: chunk
/// grid, root, and the relative chunk range each absolute rank must hold
/// fully reduced at the end (from the row's `reduced`).
trace::ReduceFlowOptions reduce_flow_options(const FuzzCase& c);

/// The count check the fuzz pre-check and the verifier share: the
/// schedule's total send count (`total_sends`, which both callers already
/// hold, so the ops are not scanned twice), then each rank's (sends,
/// recvs), against `want`. One line per mismatch, at most `limit`.
std::vector<std::string> count_mismatches(const trace::Schedule& sched,
                                          std::uint64_t total_sends,
                                          const TransferExpectation& want,
                                          std::size_t limit);

}  // namespace bsb::fuzz
