// Rotation-equivalence prover: turns the schedule cache's central
// assumption into a checked theorem. The cache (coll/schedule_cache.hpp,
// core/icoll.cpp) compiles every plan once at root 0 and rotates it at
// execution time — rank r runs plan rank rel_rank(r, root, P)'s steps with
// peers mapped through abs_rank and offsets/tags untouched. This pass
// proves, per (variant, P, root, nbytes), that the rotated root-0 plan is
// step-graph-isomorphic to a schedule recorded directly at that root:
// identical op kinds, relabelled peers, identical tags, offsets and byte
// counts in identical program order.
//
// Program-order equality of the op lists implies the stronger graph
// properties for free: message matching is a deterministic function of the
// op lists (per-(src, dst, tag) channel FIFO, trace/match.cpp), so equal
// op lists produce equal matchings, and the happens-before graph — built
// from program order plus the matching — is then isomorphic under the same
// rank relabelling. For small P the prover additionally materializes both
// matchings and compares them edge-by-edge (full_graph_checked).
//
// On failure the report carries a minimal divergence witness: the first
// (absolute rank, step index, field) where the rotated plan and the fresh
// schedule disagree, with both values spelled out.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "coll/plan.hpp"
#include "fuzz/case.hpp"
#include "fuzz/spec.hpp"
#include "trace/schedule.hpp"

namespace bsb::verify {

/// The first point of disagreement between the rotated root-0 plan and the
/// freshly recorded root-r schedule.
struct RotationDivergence {
  int rank = -1;       // absolute rank
  int step = -1;       // index into that rank's op list (-1: list length)
  std::string field;   // "steps", "kind", "dst", "src", "tag", "send_off",
                       // "send_bytes", "recv_off", "recv_cap", "matching"
  std::string detail;  // rotated-plan value vs fresh value
};

struct RotationReport {
  bool ok = true;
  /// True when the matchings of both schedules were also materialized and
  /// compared edge-by-edge (done for P <= kFullGraphMaxP).
  bool full_graph_checked = false;
  std::uint64_t steps_compared = 0;
  /// Fingerprint of the root-0 canonical plan the proof ran against.
  std::uint64_t plan_fingerprint = 0;
  std::optional<RotationDivergence> divergence;

  std::string to_string() const;
};

/// Ranks above which the prover relies on the op-list => matching argument
/// instead of materializing both matchings (memory stays O(ops per rank)).
inline constexpr int kFullGraphMaxP = 512;

/// Variants whose schedules go through the root-canonical plan cache (or
/// are compiled to a coll::Plan) and therefore owe a rotation proof.
/// Excluded: rootless variants (nothing to rotate), scratch-buffer and
/// SubComm-based variants (not plan-compilable), and the nonblocking
/// front-end (covered through BcastPersistent's plan path).
inline bool rotation_checkable(fuzz::Variant v) noexcept {
  return (fuzz::spec(v).proofs & fuzz::kRotationProof) != 0;
}

/// Prove `fresh` — the variant's schedule recorded directly at c.root —
/// equivalent to the rotated root-0 plan of the same configuration. The
/// root-0 program is re-recorded one rank at a time, so peak memory is
/// O(ops per rank) on top of `fresh`.
RotationReport prove_rotation_equivalence(const fuzz::FuzzCase& c,
                                          const trace::Schedule& fresh);

/// The same proof against an explicit root-canonical plan — lets tests and
/// --demo-broken=rotation sabotage the plan (e.g. swap one peer) and watch
/// the witness fire.
RotationReport prove_plan_rotation(const coll::Plan& plan, int root,
                                   const trace::Schedule& fresh);

}  // namespace bsb::verify
