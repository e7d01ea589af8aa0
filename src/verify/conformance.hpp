// Closed-form expectations and ownership contracts, read from the
// collective registry (fuzz/spec.hpp): total and per-rank message counts,
// exact redundant-transfer accounting (the paper's excess: the enclosed
// ring re-ships bytes the receiver already owns after the binomial
// scatter), and each variant's initial-ownership contract. The verifier
// checks recorded schedules against these; a mismatch is a conformance
// failure, never a tolerance.
#pragma once

#include <vector>

#include "bsbutil/intervals.hpp"
#include "fuzz/case.hpp"
#include "fuzz/spec.hpp"
#include "trace/reduce_flow.hpp"

namespace bsb::verify {

using fuzz::reduce_flow_options;
using fuzz::TransferExpectation;

/// Closed-form expectation for the case's recorded schedule.
inline TransferExpectation expected_transfers(const fuzz::FuzzCase& c) {
  return fuzz::spec(c.variant).expect(c);
}

/// Bytes each rank holds valid BEFORE the collective runs — the variant's
/// ownership contract, the same one the fuzz runner seeds its buffers from.
inline std::vector<IntervalSet> initial_coverage(const fuzz::FuzzCase& c) {
  return fuzz::spec(c.variant).contract(c);
}

/// False for variants whose spans live in scratch or body-local memory
/// (Bruck rotation, the ibcast companions), where offsets cannot be
/// dataflow-validated, and for the reduction family, whose payloads are
/// partial sums rather than copies of source bytes.
inline bool dataflow_checkable(fuzz::Variant v) noexcept {
  return (fuzz::spec(v).proofs & fuzz::kDataflowProof) != 0;
}

/// True for the reduction family: the recorded schedule must satisfy the
/// contributor-interval rules of trace::validate_reduce_flow.
inline bool reduction_checkable(fuzz::Variant v) noexcept {
  return fuzz::spec(v).grain == fuzz::Grain::Reduce;
}

}  // namespace bsb::verify
