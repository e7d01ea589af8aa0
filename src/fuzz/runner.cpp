#include "fuzz/runner.hpp"

#include <mutex>
#include <utility>
#include <vector>

#include "bsbutil/error.hpp"
#include "bsbutil/rng.hpp"
#include "coll/reduce_ops.hpp"
#include "comm/chunks.hpp"
#include "mpisim/thread_comm.hpp"
#include "mpisim/world.hpp"
#include "trace/match.hpp"
#include "trace/record.hpp"

namespace bsb::fuzz {

namespace {

/// Pre-collective buffer contents for `rank`: the bytes the row's contract
/// says the rank holds — pattern bytes at their home offsets, or reduction
/// contributions — and garbage everywhere else.
void fill_initial(const FuzzCase& c, int rank, const IntervalSet& owned,
                  std::span<std::byte> buf) {
  const std::uint64_t ps = oracle_seed(c);
  fill_pattern(buf, ~ps);
  const bool reduction = spec(c.variant).grain == Grain::Reduce;
  for (const Interval& iv : owned.parts()) {
    const std::span<std::byte> bytes = buf.subspan(iv.lo, iv.length());
    if (reduction) {
      coll::fill_contributions(c.red_dtype, ps, rank,
                               iv.lo / coll::elem_bytes(c.red_dtype), bytes);
    } else {
      fill_pattern(bytes, ps, iv.lo);
    }
  }
}

/// The byte-exact post-reduction buffer every rank's checked region must
/// match: chunk c's elements folded in ring arrival order (or the
/// recursive-doubling tree for whole-buffer reductions). Computed once per
/// case, not per rank — the fold is O(P) per element.
std::vector<std::byte> reduce_expected_buffer(const FuzzCase& c) {
  const std::uint64_t ps = oracle_seed(c);
  const std::uint64_t es = coll::elem_bytes(c.red_dtype);
  std::vector<std::byte> expected(c.nbytes);
  if (c.nbytes == 0) return expected;
  if (spec(c.variant).reduced == Reduced::AllTree) {
    for (std::uint64_t off = 0; off < c.nbytes; off += es) {
      coll::rd_reduced_value(c.red_op, c.red_dtype, ps, c.nranks, off / es,
                             std::span<std::byte>(expected).subspan(off, es));
    }
    return expected;
  }
  const ChunkLayout layout(c.nbytes, c.nranks);
  for (int chunk = 0; chunk < c.nranks; ++chunk) {
    const std::uint64_t lo = layout.disp(chunk);
    const std::uint64_t hi = lo + layout.count(chunk);
    for (std::uint64_t off = lo; off < hi; off += es) {
      coll::ring_reduced_value(c.red_op, c.red_dtype, ps, c.nranks, c.root,
                               chunk, off / es,
                               std::span<std::byte>(expected).subspan(off, es));
    }
  }
  return expected;
}

}  // namespace

RankBody make_rank_body(const FuzzCase& c, Sabotage sabotage) {
  return spec(c.variant).body(c, sabotage);
}

bool sabotage_applies(const FuzzCase& c, Sabotage sabotage) noexcept {
  return sabotage != Sabotage::None && spec(c.variant).sabotage == sabotage;
}

RunOutcome run_case(const FuzzCase& c, Sabotage sabotage) {
  RunOutcome out;
  const auto fail = [&](const std::string& detail) {
    out.ok = false;
    out.detail = detail + " [" + describe(c) + "]";
    return out;
  };
  const CollectiveSpec& row = spec(c.variant);
  const RankBody body = row.body(c, sabotage);

  // Phase 1: symbolic. Catches miscounted/unpairable schedules without
  // spending watchdog time, which keeps the self-test and shrinking fast.
  // Skipped for empty buffers (nothing to record offsets against).
  std::uint64_t expected_msgs = 0;
  if (c.nbytes > 0) {
    trace::Schedule sched;
    try {
      sched = trace::record_schedule(c.nranks, c.nbytes, body);
    } catch (const Error& e) {
      return fail(std::string("recording failed: ") + e.what());
    }
    try {
      (void)trace::match_schedule(sched);
    } catch (const Error& e) {
      return fail(std::string("schedule does not match up: ") + e.what());
    }
    expected_msgs = sched.total_sends();
    std::string err;
    for (const std::string& m :
         count_mismatches(sched, expected_msgs, row.expect(c), 4)) {
      err += (err.empty() ? "" : "; ") + m;
    }
    if (!err.empty()) return fail(err);
  }

  // Phase 2: threaded execution with fault injection + byte oracle.
  mpisim::WorldConfig wc;
  wc.eager_threshold = c.eager_threshold;
  wc.watchdog_seconds = c.watchdog_seconds;
  wc.faults = c.faults;
  mpisim::World world(c.nranks, wc);

  const std::vector<IntervalSet> owned = row.contract(c);
  const std::uint64_t ps = oracle_seed(c);
  // Reductions compare each rank's fully reduced chunks (the reduce-flow
  // postcondition) against the byte-exact fold oracle instead of the
  // pattern; the expected buffer is shared read-only by all ranks.
  const bool reduction = row.grain == Grain::Reduce && c.nbytes > 0;
  std::vector<std::byte> expected;
  trace::ReduceFlowOptions finals;
  if (reduction) {
    expected = reduce_expected_buffer(c);
    finals = reduce_flow_options(c);
  }
  std::mutex fail_mu;
  std::string first_fail;
  auto report_fail = [&](int rank, std::uint64_t bad, std::uint64_t total) {
    const std::lock_guard<std::mutex> lk(fail_mu);
    if (first_fail.empty()) {
      first_fail = "oracle mismatch at rank " + std::to_string(rank) +
                   " byte " + std::to_string(bad) + " of " +
                   std::to_string(total);
    }
  };
  try {
    world.run([&](mpisim::ThreadComm& comm) {
      const auto rank = static_cast<std::size_t>(comm.rank());
      std::vector<std::byte> buf(c.nbytes);
      fill_initial(c, comm.rank(), owned[rank], buf);
      body(comm, buf);
      if (reduction) {
        const auto [first, n] = finals.required[rank];
        const std::uint64_t lo = static_cast<std::uint64_t>(first) * finals.chunk_bytes;
        const std::uint64_t hi = lo + static_cast<std::uint64_t>(n) * finals.chunk_bytes;
        for (std::uint64_t i = lo; i < hi; ++i) {
          if (buf[i] != expected[i]) {
            report_fail(comm.rank(), i, buf.size());
            break;
          }
        }
      } else {
        const std::size_t bad = first_pattern_mismatch(buf, ps);
        if (bad != buf.size()) report_fail(comm.rank(), bad, buf.size());
      }
    });
  } catch (const Error& e) {
    return fail(std::string("execution failed: ") + e.what());
  }
  out.messages = world.total_msgs();
  if (!first_fail.empty()) return fail(first_fail);

  // Phase 3: the schedule the threads actually ran must move exactly the
  // message count the recording predicted (faults may reorder and reshape
  // protocols, never add or drop messages).
  if (c.nbytes > 0 && out.messages != expected_msgs) {
    return fail("threaded run moved " + std::to_string(out.messages) +
                " msgs, recorded schedule has " + std::to_string(expected_msgs));
  }
  return out;
}

}  // namespace bsb::fuzz
