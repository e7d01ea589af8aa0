// Structural lint over a recorded schedule, run before the heavier
// analyses: self-sends, out-of-bounds or empty intervals, tag-discipline
// violations (tags outside the registered per-algorithm tag space of
// coll/tags.hpp and the SubComm context namespacing of comm/subcomm.hpp),
// and mismatched per-rank barrier counts. Errors make the schedule invalid;
// warnings flag legal-but-wasteful constructs (e.g. the enclosed ring's
// zero-byte trailing-chunk messages the paper criticises).
// The same header also hosts the symbolic resource-safety bounds: per-rank
// closed-form peaks for the eager buffer (registry rows, checked against
// the greedy high-water mark of hb.cpp) and the shm-pool occupancy proof
// for the hier fan-out phase (docs/VERIFIER.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bsbutil/error.hpp"
#include "fuzz/case.hpp"
#include "fuzz/spec.hpp"
#include "trace/schedule.hpp"

namespace bsb::verify {

enum class LintSeverity : std::uint8_t { Warning, Error };

const char* to_string(LintSeverity s) noexcept;

struct LintFinding {
  LintSeverity severity = LintSeverity::Warning;
  int rank = -1;
  int op = -1;  // -1 for schedule-level findings
  std::string what;
};

struct LintReport {
  /// True when no Error-severity finding was recorded (warnings are fine).
  bool ok = true;
  std::vector<LintFinding> findings;
  std::uint64_t zero_byte_sends = 0;

  std::string to_string() const;
};

LintReport lint_schedule(const trace::Schedule& sched);

// --- Symbolic resource-safety bounds -----------------------------------

/// True when the variant's registry row has a closed form for its
/// per-rank eager peak.
inline bool eager_bound_checkable(fuzz::Variant v) noexcept {
  return fuzz::spec(v).eager_bound != nullptr;
}

/// Per-rank (absolute-rank-indexed) closed-form upper bound, in bytes, on
/// the eager high-water mark under `eager_threshold` (the row's
/// eager_bound). The scatter term is the rank's binomial subtree block,
/// the ring term sums chunk (rel - i) mod P over the steps the rank's
/// RingPlan actually receives in, and the hier fan-out term is one full
/// buffer per non-leader.
inline std::vector<std::uint64_t> eager_peak_bounds(
    const fuzz::FuzzCase& c, std::uint64_t eager_threshold) {
  const auto bound = fuzz::spec(c.variant).eager_bound;
  BSB_REQUIRE(bound != nullptr, "eager_peak_bounds: variant has no closed form");
  return bound(c, eager_threshold);
}

/// Shm-pool occupancy proof for the hierarchical fan-out phase.
struct ShmPoolReport {
  bool ok = true;
  std::uint64_t fanout_msgs = 0;       // kHierFanout sends in the schedule
  std::uint64_t peak_node_bytes = 0;   // worst per-node in-flight bytes
  std::uint64_t bound_node_bytes = 0;  // closed form: max (size-1)*nbytes
  std::vector<std::string> witnesses;
};

/// Prove the netsim shm-pool assumptions for a recorded hier schedule:
/// every kHierFanout message stays inside its node and originates at the
/// node's leader, and each node's in-flight single-copy bytes — senders
/// are freed at post, so all of a node's fan-out messages can be resident
/// at once — equal the closed form (node_size - 1) * nbytes the
/// bw_shm_node pool is provisioned for.
ShmPoolReport verify_shm_pool(const trace::Schedule& sched,
                              const std::vector<int>& node_sizes, int root);

}  // namespace bsb::verify
