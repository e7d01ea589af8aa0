#include "fuzz/spec.hpp"

#include <algorithm>
#include <array>

#include "bsbutil/error.hpp"
#include "bsbutil/math.hpp"
#include "bsbutil/rng.hpp"
#include "coll/allgather_bruck.hpp"
#include "coll/allgather_bruck_hier.hpp"
#include "coll/allgather_neighbor_exchange.hpp"
#include "coll/allgather_recursive_doubling.hpp"
#include "coll/allgather_ring_native.hpp"
#include "coll/allgatherv_ring.hpp"
#include "coll/bcast_binomial.hpp"
#include "coll/bcast_ring_pipelined.hpp"
#include "coll/bcast_scatter_rd.hpp"
#include "coll/bcast_scatter_ring_native.hpp"
#include "coll/bcast_smp.hpp"
#include "coll/hier/bcast_hier.hpp"
#include "coll/hier/topology.hpp"
#include "coll/reduce_ops.hpp"
#include "coll/reduce_scatter_ring.hpp"
#include "coll/scatter_binomial.hpp"
#include "comm/chunks.hpp"
#include "comm/topology.hpp"
#include "comm/vchunks.hpp"
#include "core/allgather_ring_tuned.hpp"
#include "core/allgatherv_ring_tuned.hpp"
#include "core/allreduce_rsag.hpp"
#include "core/bcast.hpp"
#include "core/bcast_scatter_ring_tuned.hpp"
#include "core/icoll.hpp"
#include "core/persistent_bcast.hpp"
#include "core/ring_plan.hpp"
#include "core/transfer_analysis.hpp"
#include "mpisim/progress.hpp"
#include "mpisim/thread_comm.hpp"
#include "trace/counters.hpp"

namespace bsb::fuzz {

namespace {

using Counts = std::pair<std::uint64_t, std::uint64_t>;  // (sends, recvs)

/// Broadcasts IbcastConcurrent keeps in flight per rank (primary buffer
/// plus depth-1 companions with staggered roots).
constexpr int kIbcastDepth = 3;

// --- Rank programs -------------------------------------------------------

core::RingPlanFn plan_fn_for(Sabotage sabotage) {
  if (sabotage == Sabotage::RingPlanStepOffByOne) {
    return [](int rel, int P) {
      core::RingPlan plan = core::compute_ring_plan(rel, P);
      plan.step += 1;  // the bug class the pairing invariant forbids
      return plan;
    };
  }
  return core::compute_ring_plan;
}

core::BcastConfig selector_config(const FuzzCase& c) {
  core::BcastConfig cfg;
  cfg.smsg_limit = c.smsg_limit;
  cfg.mmsg_limit = c.mmsg_limit;
  cfg.use_tuned_ring = c.use_tuned_ring;
  return cfg;
}

/// Distinct oracle seed for IbcastConcurrent's k-th companion broadcast
/// (k in [1, kIbcastDepth)); the primary buffer keeps oracle_seed itself.
std::uint64_t companion_seed(std::uint64_t ps, int k) noexcept {
  return ps ^ (0xc2b2ae3d27d4eb4fULL * static_cast<std::uint64_t>(k));
}

/// kIbcastDepth broadcasts (staggered roots) in flight at once on the
/// progress engine: the primary collective runs on `buf`, the companions
/// on body-local buffers whose oracle is checked right here. Under the
/// recorder there is no engine (and no data), so the same broadcasts run
/// back to back — a nonblocking collective moves exactly its blocking
/// counterpart's message multiset either way.
RankBody ibcast_concurrent_body(const FuzzCase& c, Sabotage /*unused*/) {
  return [root = c.root, cfg = selector_config(c), ps = oracle_seed(c)](
             Comm& comm, std::span<std::byte> buf) {
    const int P = comm.size();
    std::vector<std::vector<std::byte>> side(
        static_cast<std::size_t>(kIbcastDepth - 1));
    for (std::size_t k = 0; k < side.size(); ++k) {
      side[k].resize(buf.size());
      const std::uint64_t cs = companion_seed(ps, static_cast<int>(k) + 1);
      const int r = (root + static_cast<int>(k) + 1) % P;
      fill_pattern(side[k], comm.rank() == r ? cs : ~cs);
    }
    auto* tc = dynamic_cast<mpisim::ThreadComm*>(&comm);
    if (tc == nullptr) {
      core::bcast(comm, buf, root, cfg);
      for (std::size_t k = 0; k < side.size(); ++k) {
        core::bcast(comm, side[k], (root + static_cast<int>(k) + 1) % P, cfg);
      }
      return;
    }
    std::vector<mpisim::CollRequest> reqs;
    reqs.push_back(core::ibcast(*tc, buf, root, cfg));
    for (std::size_t k = 0; k < side.size(); ++k) {
      reqs.push_back(
          core::ibcast(*tc, side[k], (root + static_cast<int>(k) + 1) % P, cfg));
    }
    // A few nonblocking passes while everything is in flight, then
    // complete out of start order (the lifetime rules allow both).
    for (int pass = 0; pass < 3; ++pass) {
      for (auto& r : reqs) (void)r.test();
    }
    mpisim::wait_all_coll(reqs);
    for (std::size_t k = 0; k < side.size(); ++k) {
      const std::uint64_t cs = companion_seed(ps, static_cast<int>(k) + 1);
      const std::size_t bad = first_pattern_mismatch(side[k], cs);
      BSB_REQUIRE(bad == side[k].size(), "ibcast companion oracle mismatch");
    }
  };
}

// --- Ownership contracts -------------------------------------------------

/// One interval per absolute rank r: `owned(r)`.
template <typename F>
std::vector<IntervalSet> per_rank(const FuzzCase& c, F owned) {
  std::vector<IntervalSet> init(static_cast<std::size_t>(c.nranks));
  for (int r = 0; r < c.nranks; ++r) {
    init[static_cast<std::size_t>(r)].insert(owned(r));
  }
  return init;
}

/// What relative rank `rel` holds after the binomial scatter over
/// `layout`: its whole subtree chunk block.
template <typename Layout>
Interval scatter_block(const Layout& layout, int rel) {
  const std::uint64_t off = layout.disp(rel);
  const int span = coll::scatter_subtree_span(rel, layout.nchunks());
  return {off, off + layout.range_count(rel, span)};
}

/// Broadcasts: the root holds the whole buffer. For IbcastConcurrent this
/// is the PRIMARY buffer's contract; the companions are seeded in the body.
std::vector<IntervalSet> root_owns_all(const FuzzCase& c) {
  return per_rank(c, [&](int r) {
    return r == c.root ? Interval{0, c.nbytes} : Interval{};
  });
}

/// Reductions: every byte of every rank is a live contribution.
std::vector<IntervalSet> everyone_owns_all(const FuzzCase& c) {
  return per_rank(c, [&](int) { return Interval{0, c.nbytes}; });
}

/// The enclosed ring assumes only the rank's own chunk.
std::vector<IntervalSet> own_chunk(const FuzzCase& c) {
  const ChunkLayout layout(c.nbytes, c.nranks);
  return per_rank(c, [&](int r) {
    const int rel = rel_rank(r, c.root, c.nranks);
    return Interval{layout.disp(rel), layout.disp(rel) + layout.count(rel)};
  });
}

/// Allgathers that run over scatter_binomial output own their whole
/// subtree block (the tuned ring exploits exactly that, so seeding only
/// the own chunk would be a contract breach).
std::vector<IntervalSet> subtree_block(const FuzzCase& c) {
  const ChunkLayout layout(c.nbytes, c.nranks);
  return per_rank(c, [&](int r) {
    return scatter_block(layout, rel_rank(r, c.root, c.nranks));
  });
}

/// The same post-scatter block ownership, weighted by the skewed layout.
std::vector<IntervalSet> skewed_subtree_block(const FuzzCase& c) {
  const VarLayout layout(skewed_counts(c.nranks, c.nbytes, c.skew_seed));
  return per_rank(c, [&](int r) {
    return scatter_block(layout, rel_rank(r, c.root, c.nranks));
  });
}

/// Rootless block allgathers: absolute rank r contributes block r.
std::vector<IntervalSet> rank_block(const FuzzCase& c) {
  const auto P = static_cast<std::uint64_t>(c.nranks);
  BSB_REQUIRE(c.nbytes % P == 0, "rank_block: block allgather needs P | nbytes");
  const std::uint64_t block = c.nbytes / P;
  return per_rank(c, [&](int r) {
    const auto off = static_cast<std::uint64_t>(r) * block;
    return Interval{off, off + block};
  });
}

// --- Closed-form transfer counts -----------------------------------------

struct Redundancy {
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;
};

/// Redundant traffic of the ENCLOSED ring running over binomial-scatter
/// output: relative rank `rel` owns its whole subtree block but the ring
/// re-delivers every chunk except its own, so the block's other chunks
/// arrive redundantly — one full message each when nonempty.
template <typename Layout>
Redundancy enclosed_ring_redundancy(const Layout& layout) {
  const int P = layout.nchunks();
  Redundancy red;
  for (int rel = 0; rel < P; ++rel) {
    const int span = coll::scatter_subtree_span(rel, P);
    red.bytes += layout.range_count(rel, span) - layout.count(rel);
    for (int ch = rel + 1; ch < rel + span; ++ch) {
      if (layout.count(ch) > 0) ++red.msgs;
    }
  }
  return red;
}

/// Redundant traffic of the recursive-doubling allgather running over
/// binomial-scatter output (MPICH's native medium-message path): in round
/// i, relative rank `rel` receives the 2^i-chunk block of its partner's
/// subtree root; for i < log2(own subtree span) that block is inside the
/// chunks `rel` already owns.
Redundancy rd_redundancy(int P, std::uint64_t nbytes) {
  BSB_REQUIRE(is_pow2(static_cast<std::uint64_t>(P)),
              "rd_redundancy: P must be a power of two");
  const ChunkLayout layout(nbytes, P);
  Redundancy red;
  for (int rel = 0; rel < P; ++rel) {
    const int span = coll::scatter_subtree_span(rel, P);  // 2^k
    for (int i = 0, mask = 1; mask < P; mask <<= 1, ++i) {
      const int dst_tree_root = ((rel ^ mask) >> i) << i;
      const int n = std::min(mask, P - dst_tree_root);
      const std::uint64_t bytes = layout.range_count(dst_tree_root, n);
      if (mask < span) {  // partner block lies inside the owned block
        red.bytes += bytes;
        if (bytes > 0) ++red.msgs;
      }
    }
  }
  return red;
}

/// A closed-form total with exactly `red` redundant traffic (none unless
/// given).
TransferExpectation exact(std::uint64_t total_sends, Redundancy red = {}) {
  TransferExpectation e;
  e.total_sends = total_sends;
  e.redundant_bytes = red.bytes;
  e.redundant_msgs = red.msgs;
  return e;
}

/// A closed-form total whose redundancy is not statically checkable
/// (scratch rotation or body-local buffers).
TransferExpectation total_only(std::uint64_t total_sends) {
  TransferExpectation e;
  e.total_sends = total_sends;
  return e;
}

/// Per-absolute-rank counts from a function of the relative rank.
template <typename F>
std::vector<Counts> per_rel_counts(const FuzzCase& c, F counts) {
  std::vector<Counts> out(static_cast<std::size_t>(c.nranks));
  for (int r = 0; r < c.nranks; ++r) {
    out[static_cast<std::size_t>(r)] = counts(rel_rank(r, c.root, c.nranks));
  }
  return out;
}

Counts plus(Counts a, Counts b) { return {a.first + b.first, a.second + b.second}; }

/// The enclosed ring: P - 1 steps, each one send and one receive.
Counts ring_counts(int P) {
  const auto steps = static_cast<std::uint64_t>(P - 1);
  return {steps, steps};
}

/// The non-enclosed ring: the RingPlan closed forms.
Counts tuned_ring_counts(int rel, int P) {
  const core::RingPlan plan = core::compute_ring_plan(rel, P);
  return {static_cast<std::uint64_t>(core::tuned_sends(plan, P)),
          static_cast<std::uint64_t>(core::tuned_recvs(plan, P))};
}

/// The blocked reduce_scatter: the ring plus the phase-B delivery of each
/// final to its popcount(rel) ancestors.
Counts blocked_rs_counts(int rel, int P) {
  return plus(ring_counts(P),
              {static_cast<std::uint64_t>(core::block_ancestors(rel)),
               static_cast<std::uint64_t>(coll::scatter_subtree_span(rel, P) - 1)});
}

/// The enclosed ring over all P ranks, with `red` redundant traffic.
TransferExpectation enclosed_ring_expectation(const FuzzCase& c,
                                              Redundancy red) {
  TransferExpectation e = exact(core::native_ring_transfers(c.nranks), red);
  e.per_rank_counts.assign(static_cast<std::size_t>(c.nranks),
                           ring_counts(c.nranks));
  return e;
}

/// The non-enclosed ring over all P ranks: zero waste, RingPlan per rank.
TransferExpectation tuned_ring_expectation(const FuzzCase& c) {
  TransferExpectation e = exact(core::tuned_ring_transfers(c.nranks));
  e.per_rank_counts = per_rel_counts(
      c, [P = c.nranks](int rel) { return tuned_ring_counts(rel, P); });
  return e;
}

/// Per-rank (sends, recvs) of the binomial scatter over a group of `L`
/// ranks at relative rank `rel` — the same closed-form walk
/// scatter_binomial performs, including the zero-byte suppression.
Counts scatter_rank_counts(int rel, int L, std::uint64_t nbytes) {
  const ChunkLayout layout(nbytes, L);
  const auto s = static_cast<std::int64_t>(layout.scatter_size());
  const auto total = static_cast<std::int64_t>(nbytes);
  std::int64_t curr = rel == 0 ? total : 0;
  std::uint64_t recvs = 0;
  int mask = 1;
  while (mask < L) {
    if (rel & mask) {
      if (total - rel * s > 0) {
        recvs = 1;
        curr = std::min<std::int64_t>(total - rel * s,
                                      static_cast<std::int64_t>(mask) * s);
      }
      break;
    }
    mask <<= 1;
  }
  std::uint64_t sends = 0;
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rel + mask >= L) continue;
    const std::int64_t send_size = curr - static_cast<std::int64_t>(mask) * s;
    if (send_size > 0) {
      ++sends;
      curr -= send_size;
    }
  }
  return {sends, recvs};
}

TransferExpectation bcast_expectation(core::BcastAlgorithm algo,
                                      const FuzzCase& c) {
  const int P = c.nranks;
  const auto P64 = static_cast<std::uint64_t>(P);
  switch (algo) {
    case core::BcastAlgorithm::Binomial:
      return exact(P64 - 1);
    case core::BcastAlgorithm::ScatterRdAllgather:
      return exact(core::scatter_transfers(P, c.nbytes) +
                       P64 * static_cast<std::uint64_t>(ceil_log2(P64)),
                   rd_redundancy(P, c.nbytes));
    case core::BcastAlgorithm::ScatterRingNative:
      return exact(
          core::scatter_transfers(P, c.nbytes) + core::native_ring_transfers(P),
          enclosed_ring_redundancy(ChunkLayout(c.nbytes, P)));
    case core::BcastAlgorithm::ScatterRingTuned:
      // The paper's claim: zero re-shipped bytes.
      return exact(core::scatter_transfers(P, c.nbytes) +
                   core::tuned_ring_transfers(P));
  }
  BSB_ASSERT(false, "bcast_expectation: unknown algorithm");
}

/// The broadcast core::bcast's selector picks for the case's thresholds.
TransferExpectation selected_bcast_expectation(const FuzzCase& c) {
  return bcast_expectation(
      core::choose_bcast_algorithm(c.nbytes, c.nranks, selector_config(c)), c);
}

std::uint64_t pipelined_sends(const FuzzCase& c) {
  if (c.nranks <= 1 || c.nbytes == 0) return 0;
  const std::uint64_t seg = c.segment_bytes == 0 ? c.nbytes : c.segment_bytes;
  return static_cast<std::uint64_t>(c.nranks - 1) * ceil_div(c.nbytes, seg);
}

/// Intra-node binomial trees plus the binomial scatter + tuned ring over
/// the node leaders; disjoint node subtrees, so nothing is redundant.
std::uint64_t smp_sends(const FuzzCase& c) {
  const Topology topo(c.nranks, c.smp_cores_per_node, Placement::Block);
  std::uint64_t total = 0;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    const auto node_size =
        static_cast<std::uint64_t>(topo.ranks_on_node(n).size());
    if (node_size > 1) total += node_size - 1;
  }
  const int L = topo.num_nodes();
  if (L > 1) {
    total += core::scatter_transfers(L, c.nbytes) + core::tuned_ring_transfers(L);
  }
  return total;
}

/// The leader phase IS the flat scatter-ring at P = #leaders; the intra
/// phase is one single-copy delivery per non-leader, so the tuned hier
/// broadcast ships zero redundant bytes and the native one wastes exactly
/// the leader-group ring excess. Per rank: non-leaders see exactly the one
/// delivery; a leader adds its scatter walk and ring plan over the leader
/// group plus (node_size - 1) fan-out sends.
TransferExpectation hier_expectation(const FuzzCase& c) {
  const hier::Topology topo(c.node_sizes);
  const int L = topo.num_nodes();
  TransferExpectation e =
      exact(core::hier_bcast_transfers(c.nranks, L, c.nbytes, c.use_tuned_ring),
            c.use_tuned_ring || L == 1
                ? Redundancy{}
                : enclosed_ring_redundancy(ChunkLayout(c.nbytes, L)));
  e.per_rank_counts.assign(static_cast<std::size_t>(c.nranks), {0, 1});
  const int leader_root = topo.node_of(c.root);
  for (int n = 0; n < L; ++n) {
    Counts leader{static_cast<std::uint64_t>(topo.node_size(n) - 1), 0};
    if (L > 1) {
      const int lrel = rel_rank(n, leader_root, L);
      leader = plus(leader, scatter_rank_counts(lrel, L, c.nbytes));
      leader = plus(leader, c.use_tuned_ring ? tuned_ring_counts(lrel, L)
                                             : ring_counts(L));
    }
    e.per_rank_counts[static_cast<std::size_t>(topo.leader_of(n, c.root))] =
        leader;
  }
  return e;
}

// --- Eager-peak bounds ---------------------------------------------------

/// Bytes a message of size b parks in the eager buffer: b when it takes
/// the eager path (b <= threshold), nothing under rendezvous.
std::uint64_t eligible(std::uint64_t bytes, std::uint64_t threshold) {
  return bytes <= threshold ? bytes : 0;
}

/// Inbound eager bytes of ring rank `rel` in an n-rank ring over `layout`:
/// step i receives chunk (rel - i) mod n. The native ring receives at every
/// step; the tuned ring's non-recv_only special ranks skip the steps past
/// n - plan.step (their right neighbour already owns those chunks).
std::uint64_t ring_inbound(int rel, int n, const ChunkLayout& layout,
                           bool tuned, std::uint64_t threshold) {
  int last = n - 1;
  if (tuned) {
    const core::RingPlan plan = core::compute_ring_plan(rel, n);
    if (!plan.recv_only) last = n - plan.step;
  }
  std::uint64_t sum = 0;
  for (int i = 1; i <= last; ++i) {
    sum += eligible(layout.count(((rel - i) % n + n) % n), threshold);
  }
  return sum;
}

/// Inbound eager bytes of the binomial scatter: one message holding the
/// rank's whole subtree block (nothing for the relative root, and no
/// message at all when the block is empty).
std::uint64_t scatter_inbound(int rel, const ChunkLayout& layout,
                              std::uint64_t threshold) {
  if (rel == 0) return 0;
  return eligible(coll::scatter_block_bytes(rel, layout), threshold);
}

/// Every non-root rank receives the full buffer once.
std::vector<std::uint64_t> binomial_bound(const FuzzCase& c,
                                          std::uint64_t thr) {
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(c.nranks), 0);
  for (int r = 0; r < c.nranks; ++r) {
    if (r != c.root) bounds[static_cast<std::size_t>(r)] = eligible(c.nbytes, thr);
  }
  return bounds;
}

/// The (native or tuned) ring over all P ranks, after the binomial
/// scatter when `scatter` is set.
std::vector<std::uint64_t> ring_bound(const FuzzCase& c, std::uint64_t thr,
                                      bool scatter, bool tuned) {
  const int P = c.nranks;
  const ChunkLayout layout(c.nbytes, P);
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    const int rel = rel_rank(r, c.root, P);
    bounds[static_cast<std::size_t>(r)] =
        (scatter ? scatter_inbound(rel, layout, thr) : 0) +
        ring_inbound(rel, P, layout, tuned, thr);
  }
  return bounds;
}

/// Leaders: scatter + ring over the L-node leader group, whose relative
/// root is the root's node index. Non-leaders: one full-buffer
/// single-copy delivery from the leader.
std::vector<std::uint64_t> hier_bound(const FuzzCase& c, std::uint64_t thr) {
  const int P = c.nranks;
  BSB_REQUIRE(!c.node_sizes.empty(), "hier_bound: BcastHier case not normalized");
  const hier::Topology topo(c.node_sizes);
  BSB_REQUIRE(topo.nranks() == P, "hier_bound: node shape / rank count mismatch");
  const int L = topo.num_nodes();
  const ChunkLayout layout(c.nbytes, L);
  const int root_node = topo.node_of(c.root);
  std::vector<std::uint64_t> bounds(static_cast<std::size_t>(P), 0);
  for (int r = 0; r < P; ++r) {
    const int node = topo.node_of(r);
    if (topo.leader_of(node, c.root) != r) {
      bounds[static_cast<std::size_t>(r)] = eligible(c.nbytes, thr);
    } else if (L > 1) {
      const int lrel = rel_rank(node, root_node, L);
      bounds[static_cast<std::size_t>(r)] =
          scatter_inbound(lrel, layout, thr) +
          ring_inbound(lrel, L, layout, c.use_tuned_ring, thr);
    }
  }
  return bounds;
}

// --- The registry ----------------------------------------------------------

constexpr std::array<CollectiveSpec, kNumVariants> kRows = {{
    {.variant = Variant::BcastBinomial,
     .name = "bcast-binomial",
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root](Comm& comm, std::span<std::byte> buf) {
         coll::bcast_binomial(comm, buf, root);
       };
     },
     .contract = root_owns_all,
     .expect = [](const FuzzCase& c) {
       return bcast_expectation(core::BcastAlgorithm::Binomial, c);
     },
     .eager_bound = binomial_bound},

    {.variant = Variant::BcastScatterRd,
     .name = "bcast-scatter-rd",
     .ranks = RankRule::PowerOfTwo,
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root](Comm& comm, std::span<std::byte> buf) {
         coll::bcast_scatter_rd(comm, buf, root);
       };
     },
     .contract = root_owns_all,
     .expect = [](const FuzzCase& c) {
       return bcast_expectation(core::BcastAlgorithm::ScatterRdAllgather, c);
     }},

    {.variant = Variant::BcastScatterRingNative,
     .name = "bcast-scatter-ring-native",
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root](Comm& comm, std::span<std::byte> buf) {
         coll::bcast_scatter_ring_native(comm, buf, root);
       };
     },
     .contract = root_owns_all,
     .expect = [](const FuzzCase& c) {
       return bcast_expectation(core::BcastAlgorithm::ScatterRingNative, c);
     },
     .eager_bound = [](const FuzzCase& c, std::uint64_t thr) {
       return ring_bound(c, thr, /*scatter=*/true, /*tuned=*/false);
     }},

    // The paper's MPI_Bcast_opt.
    {.variant = Variant::BcastScatterRingTuned,
     .name = "bcast-scatter-ring-tuned",
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage s) -> RankBody {
       return [root = c.root, s](Comm& comm, std::span<std::byte> buf) {
         const ChunkLayout layout(buf.size(), comm.size());
         coll::scatter_binomial(comm, buf, root, layout);
         core::allgather_ring_tuned(comm, buf, root, layout, plan_fn_for(s));
       };
     },
     .contract = root_owns_all,
     .expect = [](const FuzzCase& c) {
       return bcast_expectation(core::BcastAlgorithm::ScatterRingTuned, c);
     },
     .eager_bound = [](const FuzzCase& c, std::uint64_t thr) {
       return ring_bound(c, thr, /*scatter=*/true, /*tuned=*/true);
     }},

    {.variant = Variant::BcastRingPipelined,
     .name = "bcast-ring-pipelined",
     .fields = kSegmentField,
     .proofs = kDataflowProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root, seg = c.segment_bytes](Comm& comm,
                                                    std::span<std::byte> buf) {
         coll::bcast_ring_pipelined(comm, buf, root, seg);
       };
     },
     .contract = root_owns_all,
     .expect = [](const FuzzCase& c) { return exact(pipelined_sends(c)); }},

    {.variant = Variant::BcastSmp,
     .name = "bcast-smp",
     .fields = kSmpCoresField,
     .proofs = kDataflowProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root, cores = c.smp_cores_per_node](
                  Comm& comm, std::span<std::byte> buf) {
         const Topology topo(comm.size(), cores, Placement::Block);
         coll::bcast_smp(comm, buf, root, topo,
                         [](Comm& leaders, std::span<std::byte> b, int r) {
                           core::bcast_scatter_ring_tuned(leaders, b, r);
                         });
       };
     },
     .contract = root_owns_all,
     .expect = [](const FuzzCase& c) { return exact(smp_sends(c)); }},

    // core::bcast dispatcher with sampled thresholds.
    {.variant = Variant::BcastAuto,
     .name = "bcast-auto",
     .fields = kSelectorField,
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root, cfg = selector_config(c)](
                  Comm& comm, std::span<std::byte> buf) {
         core::bcast(comm, buf, root, cfg);
       };
     },
     .contract = root_owns_all,
     .expect = selected_bcast_expectation},

    // core::PersistentBcast plan + execute.
    {.variant = Variant::BcastPersistent,
     .name = "bcast-persistent",
     .fields = kSelectorField,
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root, cfg = selector_config(c)](
                  Comm& comm, std::span<std::byte> buf) {
         const core::PersistentBcast plan(comm, buf.size(), root, cfg);
         plan.execute(buf);
       };
     },
     .contract = root_owns_all,
     .expect = selected_bcast_expectation},

    {.variant = Variant::AllgatherRingNative,
     .name = "allgather-ring-native",
     .grain = Grain::Block,
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root](Comm& comm, std::span<std::byte> buf) {
         const ChunkLayout layout(buf.size(), comm.size());
         coll::allgather_ring_native(comm, buf, root, layout);
       };
     },
     .contract = own_chunk,
     // Ranks start with ONLY their own chunk, so nothing the enclosed ring
     // delivers is redundant here; the waste appears only when it runs
     // over scatter output (BcastScatterRingNative).
     .expect = [](const FuzzCase& c) { return enclosed_ring_expectation(c, {}); },
     .eager_bound = [](const FuzzCase& c, std::uint64_t thr) {
       return ring_bound(c, thr, /*scatter=*/false, /*tuned=*/false);
     }},

    {.variant = Variant::AllgatherRingTuned,
     .name = "allgather-ring-tuned",
     .grain = Grain::Block,
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .proofs = kDataflowProof | kRotationProof,
     .body = [](const FuzzCase& c, Sabotage s) -> RankBody {
       return [root = c.root, s](Comm& comm, std::span<std::byte> buf) {
         const ChunkLayout layout(buf.size(), comm.size());
         core::allgather_ring_tuned(comm, buf, root, layout, plan_fn_for(s));
       };
     },
     .contract = subtree_block,
     .expect = tuned_ring_expectation,
     .eager_bound = [](const FuzzCase& c, std::uint64_t thr) {
       return ring_bound(c, thr, /*scatter=*/false, /*tuned=*/true);
     }},

    {.variant = Variant::AllgatherRecursiveDoubling,
     .name = "allgather-recursive-doubling",
     .ranks = RankRule::PowerOfTwo,
     .grain = Grain::Block,
     .proofs = kDataflowProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root](Comm& comm, std::span<std::byte> buf) {
         const ChunkLayout layout(buf.size(), comm.size());
         coll::allgather_recursive_doubling(comm, buf, root, layout);
       };
     },
     .contract = subtree_block,
     .expect = [](const FuzzCase& c) {
       const auto P = static_cast<std::uint64_t>(c.nranks);
       return exact(P * static_cast<std::uint64_t>(ceil_log2(P)),
                    rd_redundancy(c.nranks, c.nbytes));
     }},

    // Gathers into a rotated scratch buffer: its offsets are foreign to
    // the collective's buffer and cannot be dataflow-validated.
    {.variant = Variant::AllgatherBruck,
     .name = "allgather-bruck",
     .rootless = true,
     .grain = Grain::Block,
     .body = [](const FuzzCase&, Sabotage) -> RankBody {
       return [](Comm& comm, std::span<std::byte> buf) {
         coll::allgather_bruck(comm, buf, buf.size() / comm.size());
       };
     },
     .contract = rank_block,
     .expect = [](const FuzzCase& c) {
       const auto P = static_cast<std::uint64_t>(c.nranks);
       return total_only(P * static_cast<std::uint64_t>(ceil_log2(P)));
     }},

    {.variant = Variant::AllgatherNeighborExchange,
     .name = "allgather-neighbor-exchange",
     .ranks = RankRule::Even,
     .rootless = true,
     .grain = Grain::Block,
     .proofs = kDataflowProof,
     .body = [](const FuzzCase&, Sabotage) -> RankBody {
       return [](Comm& comm, std::span<std::byte> buf) {
         coll::allgather_neighbor_exchange(comm, buf, buf.size() / comm.size());
       };
     },
     .contract = rank_block,
     .expect = [](const FuzzCase& c) {
       const auto P = static_cast<std::uint64_t>(c.nranks);
       return exact(P * (P / 2));
     }},

    // Ownership-aware reduction family (the paper's trick beyond bcast).
    // Partial sums are not byte copies: the reduce-flow engine validates
    // them instead of the dataflow pass. Ownership-aware everywhere, so
    // nothing complete is ever re-shipped.
    {.variant = Variant::ReduceScatterRing,
     .name = "reduce-scatter-ring",
     .grain = Grain::Reduce,
     .reduced = Reduced::OwnChunk,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root, op = c.red_op, dt = c.red_dtype](
                  Comm& comm, std::span<std::byte> buf) {
         coll::reduce_scatter_ring(comm, buf, root, op, dt);
       };
     },
     .contract = everyone_owns_all,
     .expect = [](const FuzzCase& c) { return enclosed_ring_expectation(c, {}); }},

    // Phase B replaces partials with finals, never completes twice.
    {.variant = Variant::ReduceScatterBlocks,
     .name = "reduce-scatter-blocks",
     .grain = Grain::Reduce,
     .sabotage = Sabotage::ReduceScatterDoubleFinal,
     .reduced = Reduced::Block,
     .body = [](const FuzzCase& c, Sabotage s) -> RankBody {
       return [root = c.root, op = c.red_op, dt = c.red_dtype, s](
                  Comm& comm, std::span<std::byte> buf) {
         coll::ReduceScatterBlocksOptions opts;
         opts.sabotage_double_final = s == Sabotage::ReduceScatterDoubleFinal;
         coll::reduce_scatter_blocks_ring(comm, buf, root, op, dt, opts);
       };
     },
     .contract = everyone_owns_all,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e =
           exact(core::blocked_reduce_scatter_transfers(c.nranks));
       e.per_rank_counts = per_rel_counts(
           c, [P = c.nranks](int rel) { return blocked_rs_counts(rel, P); });
       return e;
     }},

    // The enclosed allgather re-ships the reduced chunks the blocked
    // reduce_scatter already left on each rank — the same excess the paper
    // prices for bcast, generalized to allreduce.
    {.variant = Variant::AllreduceRsAgNative,
     .name = "allreduce-rsag-native",
     .grain = Grain::Reduce,
     .reduced = Reduced::All,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root, op = c.red_op, dt = c.red_dtype](
                  Comm& comm, std::span<std::byte> buf) {
         core::allreduce_rsag_native(comm, buf, root, op, dt);
       };
     },
     .contract = everyone_owns_all,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e =
           exact(core::allreduce_rsag_native_transfers(c.nranks),
                 enclosed_ring_redundancy(ChunkLayout(c.nbytes, c.nranks)));
       e.per_rank_counts = per_rel_counts(c, [P = c.nranks](int rel) {
         return plus(blocked_rs_counts(rel, P), ring_counts(P));
       });
       return e;
     }},

    // The generalized zero-waste claim.
    {.variant = Variant::AllreduceRsAgTuned,
     .name = "allreduce-rsag-tuned",
     .grain = Grain::Reduce,
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .reduced = Reduced::All,
     .body = [](const FuzzCase& c, Sabotage s) -> RankBody {
       return [root = c.root, op = c.red_op, dt = c.red_dtype, s](
                  Comm& comm, std::span<std::byte> buf) {
         core::allreduce_rsag_tuned(comm, buf, root, op, dt, plan_fn_for(s));
       };
     },
     .contract = everyone_owns_all,
     .expect = [](const FuzzCase& c) {
       TransferExpectation e =
           exact(core::allreduce_rsag_tuned_transfers(c.nranks));
       e.per_rank_counts = per_rel_counts(c, [P = c.nranks](int rel) {
         return plus(blocked_rs_counts(rel, P), tuned_ring_counts(rel, P));
       });
       return e;
     }},

    // Partial merges only, never a re-delivery.
    {.variant = Variant::AllreduceRecursiveDoubling,
     .name = "allreduce-recursive-doubling",
     .ranks = RankRule::PowerOfTwo,
     .rootless = true,
     .grain = Grain::Reduce,
     .reduced = Reduced::AllTree,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [op = c.red_op, dt = c.red_dtype](Comm& comm,
                                                std::span<std::byte> buf) {
         coll::allreduce_typed(comm, buf, op, dt);
       };
     },
     .contract = everyone_owns_all,
     .expect = [](const FuzzCase& c) {
       const auto P = static_cast<std::uint64_t>(c.nranks);
       const auto rounds = static_cast<std::uint64_t>(floor_log2(P));
       TransferExpectation e = exact(P * rounds);
       e.per_rank_counts.assign(P, {rounds, rounds});
       return e;
     }},

    // Skewed-block (allgatherv) generalization, over post-scatter block
    // ownership like the tuned uniform ring.
    {.variant = Variant::AllgathervRingNative,
     .name = "allgatherv-ring-native",
     .grain = Grain::Skewed,
     .proofs = kDataflowProof,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [root = c.root, skew = c.skew_seed](Comm& comm,
                                                  std::span<std::byte> buf) {
         const VarLayout layout(skewed_counts(comm.size(), buf.size(), skew));
         coll::allgatherv_ring_native(comm, buf, root, layout);
       };
     },
     .contract = skewed_subtree_block,
     .expect = [](const FuzzCase& c) {
       return enclosed_ring_expectation(
           c, enclosed_ring_redundancy(
                  VarLayout(skewed_counts(c.nranks, c.nbytes, c.skew_seed))));
     }},

    // Skew-oblivious plan, still zero waste.
    {.variant = Variant::AllgathervRingTuned,
     .name = "allgatherv-ring-tuned",
     .grain = Grain::Skewed,
     .sabotage = Sabotage::RingPlanStepOffByOne,
     .proofs = kDataflowProof,
     .body = [](const FuzzCase& c, Sabotage s) -> RankBody {
       return [root = c.root, skew = c.skew_seed, s](Comm& comm,
                                                     std::span<std::byte> buf) {
         const VarLayout layout(skewed_counts(comm.size(), buf.size(), skew));
         core::allgatherv_ring_tuned(comm, buf, root, layout, plan_fn_for(s));
       };
     },
     .contract = skewed_subtree_block,
     .expect = tuned_ring_expectation},

    // Locality-aware comparison point; scratch rotation like flat Bruck.
    {.variant = Variant::AllgatherBruckHier,
     .name = "allgather-bruck-hier",
     .rootless = true,
     .grain = Grain::Block,
     .fields = kSmpCoresField,
     .body = [](const FuzzCase& c, Sabotage) -> RankBody {
       return [cores = c.smp_cores_per_node](Comm& comm,
                                             std::span<std::byte> buf) {
         coll::allgather_bruck_hier(comm, buf, buf.size() / comm.size(), cores);
       };
     },
     .contract = rank_block,
     .expect = [](const FuzzCase& c) {
       return total_only(
           core::bruck_hier_transfers(c.nranks, c.smp_cores_per_node));
     }},

    // kIbcastDepth same-shape broadcasts in flight; the root stagger never
    // changes a count. Two thirds of the recorded offsets belong to
    // body-local companion buffers, so neither dataflow nor redundancy is
    // statically checkable.
    {.variant = Variant::IbcastConcurrent,
     .name = "ibcast-concurrent",
     .fields = kSelectorField,
     .body = ibcast_concurrent_body,
     .contract = root_owns_all,
     .expect = [](const FuzzCase& c) {
       return total_only(static_cast<std::uint64_t>(kIbcastDepth) *
                         *selected_bcast_expectation(c).total_sends);
     }},

    // Hierarchical broadcast over an explicit ragged node shape: leaders
    // run the scatter-ring over their own sub-communicator, then
    // single-copy fan-out within each node (src/coll/hier).
    {.variant = Variant::BcastHier,
     .name = "bcast-hier",
     .fields = kNodesField,
     .sabotage = Sabotage::HierDoubleFanout,
     .proofs = kDataflowProof | kShmPoolProof,
     .body = [](const FuzzCase& c, Sabotage s) -> RankBody {
       return [root = c.root, sizes = c.node_sizes, tuned = c.use_tuned_ring,
               s](Comm& comm, std::span<std::byte> buf) {
         const hier::Topology topo(sizes);
         core::HierBcastOptions opts;
         opts.tuned = tuned;
         opts.sabotage_double_fanout = s == Sabotage::HierDoubleFanout;
         core::bcast_hier(comm, buf, root, topo, opts);
       };
     },
     .contract = root_owns_all,
     .expect = hier_expectation,
     .eager_bound = hier_bound},
}};

constexpr bool rows_complete() {
  for (std::size_t i = 0; i < kRows.size(); ++i) {
    const CollectiveSpec& row = kRows[i];
    if (static_cast<std::size_t>(row.variant) != i || row.name == nullptr ||
        row.body == nullptr || row.contract == nullptr ||
        row.expect == nullptr ||
        (row.grain == Grain::Reduce) != (row.reduced != Reduced::None)) {
      return false;
    }
  }
  return true;
}
static_assert(rows_complete(),
              "every Variant needs one complete row, in enum order");

}  // namespace

const CollectiveSpec& spec(Variant v) noexcept {
  return kRows[static_cast<std::size_t>(v)];
}

trace::ReduceFlowOptions reduce_flow_options(const FuzzCase& c) {
  const Reduced reduced = spec(c.variant).reduced;
  BSB_REQUIRE(reduced != Reduced::None,
              "reduce_flow_options: not a reduction-family case");
  BSB_REQUIRE(c.nbytes > 0, "reduce_flow_options: nbytes must be positive");
  const int P = c.nranks;
  trace::ReduceFlowOptions opt;
  opt.root = c.root;
  if (reduced == Reduced::AllTree) {
    // Whole-buffer partials halve the contributor gap each round; a single
    // chunk models that exactly.
    opt.chunk_bytes = c.nbytes;
    opt.required.assign(static_cast<std::size_t>(P), {0, 1});
    return opt;
  }
  opt.nchunks = P;
  opt.chunk_bytes = c.nbytes / static_cast<std::uint64_t>(P);
  opt.required.resize(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const int rel = rel_rank(r, c.root, P);
    auto& req = opt.required[static_cast<std::size_t>(r)];
    switch (reduced) {
      case Reduced::OwnChunk: req = {rel, 1}; break;
      case Reduced::Block: req = {rel, coll::scatter_subtree_span(rel, P)}; break;
      default: req = {0, P}; break;
    }
  }
  return opt;
}

std::vector<std::string> count_mismatches(const trace::Schedule& sched,
                                          std::uint64_t total_sends,
                                          const TransferExpectation& want,
                                          std::size_t limit) {
  std::vector<std::string> out;
  const auto mismatch = [&out](std::string what, std::uint64_t got,
                               std::uint64_t closed_form) {
    out.push_back(std::move(what) + ": schedule has " + std::to_string(got) +
                  ", closed form says " + std::to_string(closed_form));
  };
  if (want.total_sends && total_sends != *want.total_sends) {
    mismatch("total messages", total_sends, *want.total_sends);
  }
  if (!want.per_rank_counts.empty()) {
    const auto per_rank = trace::per_rank_op_counts(sched);
    for (int r = 0; r < sched.nranks && out.size() < limit; ++r) {
      const auto [sends, recvs] = want.per_rank_counts[static_cast<std::size_t>(r)];
      if (per_rank[r].sends != sends) {
        mismatch("rank " + std::to_string(r) + " sends", per_rank[r].sends, sends);
      }
      if (per_rank[r].recvs != recvs) {
        mismatch("rank " + std::to_string(r) + " recvs", per_rank[r].recvs, recvs);
      }
    }
  }
  if (out.size() > limit) out.resize(limit);
  return out;
}

}  // namespace bsb::fuzz
