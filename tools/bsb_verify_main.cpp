// bsb-verify: static schedule verifier for every broadcast/allgather path.
// Records each variant's schedule symbolically (no threads) and proves
// deadlock freedom, buffer safety, dataflow coverage, zero redundancy on
// the tuned paths, and closed-form transfer counts — at process counts the
// threaded oracle cannot reach.
//
//   bsb-verify                                # default sweep to P=4096
//   bsb-verify --pmax=64 --verbose            # quick bounded sweep
//   bsb-verify --variant=bcast-scatter-ring-tuned --plist=8,10,4096
//   bsb-verify --json=verify.json             # machine-readable artifact
//   bsb-verify --selftest                     # prove the detectors fire
//   bsb-verify --demo-broken=cycle            # witness demo, exits nonzero
//
// Exit status: 0 = all properties proven (or self-test passed), 1 = at
// least one property failed, 2 = usage error.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "coll/plan.hpp"
#include "coll/tags.hpp"
#include "fuzz/runner.hpp"
#include "trace/record.hpp"
#include "trace/schedule.hpp"
#include "verify/equiv.hpp"
#include "verify/tagspace.hpp"
#include "verify/verifier.hpp"

namespace {

using bsb::trace::Op;
using bsb::trace::OpKind;
using bsb::trace::Schedule;
using bsb::verify::CaseResult;
using bsb::verify::SweepOptions;
using bsb::verify::VerifyOptions;

void usage(std::ostream& os) {
  os << "bsb-verify — static proofs for all bcast/allgather schedules\n\n"
        "Sweep mode (default):\n"
        "  --pmax=N            largest process count (default 4096)\n"
        "  --plist=a,b,c       explicit process counts (overrides default list)\n"
        "  --sizes=a,b         buffer sizes in bytes (default 12288,524288)\n"
        "  --eager=a,b         eager thresholds to prove deadlock freedom\n"
        "                      under (default 0,65536; 0 = pure rendezvous)\n"
        "  --variant=NAME      restrict to one variant (default: all)\n"
        "  --all-roots-upto=N  try every root for P <= N (default 10)\n"
        "  --no-closed-forms   skip the dense closed-form pass over [2,pmax]\n"
        "  --json=PATH         write a bsb-verify-v1 JSON artifact\n"
        "  --verbose           print every proven case\n\n"
        "Single case:\n"
        "  --variant=NAME --ranks=N [--root=R] [--bytes=B] [--skew-seed=N]\n"
        "  (shape is snapped to the variant's block / reduction grain)\n\n"
        "Detector checks:\n"
        "  --selftest          sabotage + broken schedules must be caught\n"
        "  --demo-broken=KIND  verify a deliberately broken schedule and\n"
        "                      exit nonzero; KIND = cycle | race |\n"
        "                      truncation | redundant-rs | hier-doublecopy |\n"
        "                      rotation | tagspace\n";
}

std::vector<std::uint64_t> parse_u64_list(const std::string& val) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < val.size()) {
    const std::size_t comma = val.find(',', pos);
    const std::string tok = val.substr(pos, comma - pos);
    out.push_back(std::strtoull(tok.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Both ranks receive before they send: no message can ever complete, the
/// canonical head-to-head deadlock. Balanced channels, so matching is fine
/// — only the happens-before analysis can reject it.
Schedule broken_cycle() {
  Schedule s;
  s.nranks = 2;
  s.nbytes = 256;
  s.ops.resize(2);
  const int tag = bsb::coll::tags::kRingAllgather;
  Op r0, s0, r1, s1;
  r0.kind = OpKind::Recv;
  r0.src = 1;
  r0.recv_tag = tag;
  r0.recv_cap = 128;
  r0.recv_off = 128;
  s0.kind = OpKind::Send;
  s0.dst = 1;
  s0.send_tag = tag;
  s0.send_bytes = 128;
  s0.send_off = 0;
  s.ops[0] = {r0, s0};
  r1.kind = OpKind::Recv;
  r1.src = 0;
  r1.recv_tag = tag;
  r1.recv_cap = 128;
  r1.recv_off = 0;
  s1.kind = OpKind::Send;
  s1.dst = 0;
  s1.send_tag = tag;
  s1.send_bytes = 128;
  s1.send_off = 128;
  s.ops[1] = {r1, s1};
  return s;
}

/// Rank 0's sendrecv reads [0,128) while writing [64,192) — the incoming
/// payload can clobber bytes still being sent. Deadlock-free, so only the
/// buffer-safety pass can reject it.
Schedule broken_race() {
  Schedule s;
  s.nranks = 2;
  s.nbytes = 256;
  s.ops.resize(2);
  const int tag = bsb::coll::tags::kRingAllgather;
  Op a, b;
  a.kind = OpKind::SendRecv;
  a.dst = 1;
  a.send_tag = tag;
  a.send_bytes = 128;
  a.send_off = 0;
  a.src = 1;
  a.recv_tag = tag;
  a.recv_cap = 128;
  a.recv_off = 64;  // overlaps the send interval [0,128)
  s.ops[0] = {a};
  b.kind = OpKind::SendRecv;
  b.dst = 0;
  b.send_tag = tag;
  b.send_bytes = 128;
  b.send_off = 128;
  b.src = 0;
  b.recv_tag = tag;
  b.recv_cap = 128;
  b.recv_off = 0;  // disjoint from its own send interval: rank 1 is clean
  s.ops[1] = {b};
  return s;
}

/// Sender ships 128 bytes into a 64-byte receive: MPI truncation error.
Schedule broken_truncation() {
  Schedule s;
  s.nranks = 2;
  s.nbytes = 256;
  s.ops.resize(2);
  const int tag = bsb::coll::tags::kBcastBinomial;
  Op snd, rcv;
  snd.kind = OpKind::Send;
  snd.dst = 1;
  snd.send_tag = tag;
  snd.send_bytes = 128;
  snd.send_off = 0;
  s.ops[0] = {snd};
  rcv.kind = OpKind::Recv;
  rcv.src = 0;
  rcv.recv_tag = tag;
  rcv.recv_cap = 64;
  rcv.recv_off = 0;
  s.ops[1] = {rcv};
  return s;
}

bool has_failure_with_prefix(const CaseResult& res, const std::string& pre) {
  for (const std::string& f : res.failures) {
    if (f.rfind(pre, 0) == 0) return true;
  }
  return false;
}

/// A root-canonical tuned-ring plan with ONE peer swapped (the cache-bug
/// the rotation prover exists to catch), plus the honest root-4 recording
/// it must be proven against.
bsb::verify::RotationReport sabotaged_rotation_report() {
  bsb::fuzz::FuzzCase c;
  c.variant = bsb::fuzz::Variant::BcastScatterRingTuned;
  c.nranks = 9;
  c.nbytes = 12288;
  c.root = 4;
  c = bsb::fuzz::normalize_case(c);
  const Schedule fresh = bsb::trace::record_schedule(
      c.nranks, c.nbytes, bsb::fuzz::make_rank_body(c));
  bsb::fuzz::FuzzCase canonical = c;
  canonical.root = 0;
  bsb::coll::Plan plan = bsb::coll::compile_plan(
      c.nranks, c.nbytes, 0, "bcast-scatter-ring-tuned",
      bsb::fuzz::make_rank_body(canonical));
  for (auto& steps : plan.steps) {
    for (auto& step : steps) {
      if (step.kind == bsb::coll::PlanStep::Kind::Send) {
        step.dst = (step.dst + 1) % plan.nranks;  // misroute one message
        return bsb::verify::prove_plan_rotation(plan, c.root, fresh);
      }
    }
  }
  return bsb::verify::prove_plan_rotation(plan, c.root, fresh);
}

int run_selftest(std::ostream& out) {
  VerifyOptions structural;  // hand-built schedules have no dataflow contract
  structural.check_dataflow = false;
  int bad = 0;
  const auto expect = [&](bool cond, const char* what) {
    out << (cond ? "  ok   " : "  FAIL ") << what << "\n";
    if (!cond) ++bad;
  };

  const CaseResult cyc =
      bsb::verify::verify_schedule(broken_cycle(), 0, structural);
  expect(!cyc.ok && has_failure_with_prefix(cyc, "deadlock"),
         "injected receive-receive cycle is rejected with a witness");
  if (!cyc.failures.empty()) out << "    " << cyc.failures.front() << "\n";

  const CaseResult race =
      bsb::verify::verify_schedule(broken_race(), 0, structural);
  expect(!race.ok && has_failure_with_prefix(race, "race"),
         "overlapping sendrecv intervals are rejected as a buffer race");

  const CaseResult trunc =
      bsb::verify::verify_schedule(broken_truncation(), 0, structural);
  expect(!trunc.ok && has_failure_with_prefix(trunc, "match"),
         "truncated receive is rejected by matching");

  bsb::fuzz::FuzzCase tuned;
  tuned.variant = bsb::fuzz::Variant::AllgatherRingTuned;
  tuned.nranks = 8;
  tuned.nbytes = 4096;
  tuned.root = 3;
  const CaseResult sab = bsb::verify::verify_case(
      tuned, VerifyOptions{}, bsb::fuzz::Sabotage::RingPlanStepOffByOne);
  expect(!sab.ok, "sabotaged tuned-ring plan (step off by one) is rejected");

  const CaseResult clean = bsb::verify::verify_case(tuned);
  expect(clean.ok, "the un-sabotaged configuration still proves clean");

  bsb::fuzz::FuzzCase rs;
  rs.variant = bsb::fuzz::Variant::ReduceScatterBlocks;
  rs.nranks = 8;
  rs.nbytes = 8192;
  rs.root = 5;
  rs = bsb::fuzz::normalize_case(rs);
  const CaseResult rs_sab = bsb::verify::verify_case(
      rs, VerifyOptions{}, bsb::fuzz::Sabotage::ReduceScatterDoubleFinal);
  expect(!rs_sab.ok && has_failure_with_prefix(rs_sab, "redundancy"),
         "double-sent reduce_scatter finals yield a redundancy witness");
  if (!rs_sab.failures.empty()) out << "    " << rs_sab.failures.front() << "\n";

  const CaseResult rs_clean = bsb::verify::verify_case(rs);
  expect(rs_clean.ok && rs_clean.redundant_msgs == 0,
         "the un-sabotaged blocked reduce_scatter proves zero redundancy");

  bsb::fuzz::FuzzCase agv;
  agv.variant = bsb::fuzz::Variant::AllgathervRingTuned;
  agv.nranks = 10;
  agv.nbytes = 12288;
  agv.root = 2;
  agv.skew_seed = 0xfeedu;
  const CaseResult agv_clean = bsb::verify::verify_case(agv);
  expect(agv_clean.ok && agv_clean.redundant_bytes == 0,
         "the tuned skewed allgatherv proves zero redundant bytes");

  bsb::fuzz::FuzzCase hier;
  hier.variant = bsb::fuzz::Variant::BcastHier;
  hier.nranks = 11;
  hier.nbytes = 12288;
  hier.root = 5;
  hier.node_sizes = {4, 4, 3};
  const CaseResult hier_sab = bsb::verify::verify_case(
      hier, VerifyOptions{}, bsb::fuzz::Sabotage::HierDoubleFanout);
  expect(!hier_sab.ok && has_failure_with_prefix(hier_sab, "redundancy"),
         "double-delivered hier fan-out yields a redundancy witness");
  if (!hier_sab.failures.empty()) {
    out << "    " << hier_sab.failures.front() << "\n";
  }

  const CaseResult hier_clean = bsb::verify::verify_case(hier);
  expect(hier_clean.ok && hier_clean.redundant_bytes == 0,
         "the ragged-shape tuned hier broadcast proves zero redundant bytes");
  expect(hier_clean.shm_checked && hier_clean.eager_bounds_checked,
         "the hier case runs the shm-pool and eager-bound proofs");

  expect(clean.rotation_checked && clean.rotation_full_graph,
         "the clean tuned ring proves rotation equivalence (full graph)");

  const bsb::verify::RotationReport rot_sab = sabotaged_rotation_report();
  expect(!rot_sab.ok && rot_sab.divergence.has_value(),
         "a swapped peer in the cached plan yields a divergence witness");
  if (!rot_sab.ok) out << "    " << rot_sab.to_string() << "\n";

  const bsb::verify::TagSpaceReport ts = bsb::verify::lint_tag_space();
  expect(ts.ok, "the registered tag space passes the whole-program lint");

  bsb::verify::TagSpaceOptions planted;
  planted.extra_base_tags = {33};
  const bsb::verify::TagSpaceReport ts_bad = bsb::verify::lint_tag_space(planted);
  expect(!ts_bad.ok && !ts_bad.witnesses.empty(),
         "a planted 33-wide base tag yields window and collision witnesses");
  if (!ts_bad.witnesses.empty()) out << "    " << ts_bad.witnesses.front() << "\n";

  out << (bad == 0 ? "selftest: all detectors fired\n"
                   : "selftest: DETECTOR GAPS\n");
  return bad == 0 ? 0 : 1;
}

int run_demo_broken(const std::string& kind, std::ostream& out) {
  if (kind == "rotation") {
    // A cached root-0 plan with one peer swapped: the rotated execution
    // would misroute a message, and the prover names the exact (rank,
    // step, field) where the rotation stops being an isomorphism.
    const bsb::verify::RotationReport rep = sabotaged_rotation_report();
    out << rep.to_string() << "\n";
    return rep.ok ? 0 : 1;
  }
  if (kind == "tagspace") {
    // A planted base tag of 33 (> kCtxStride - 1): it escapes the remap
    // window, collides across adjacent contexts (33 + 32c == 1 + 32(c+1))
    // and, used raw, aliases base tag 1 of in-flight operation #1.
    bsb::verify::TagSpaceOptions planted;
    planted.extra_base_tags = {33};
    const bsb::verify::TagSpaceReport rep = bsb::verify::lint_tag_space(planted);
    out << rep.to_string() << "\n";
    return rep.ok ? 0 : 1;
  }
  if (kind == "hier-doublecopy") {
    // A hier broadcast whose leaders deliver the buffer twice to every
    // non-leader: values stay correct, but the coverage pass must price
    // every second delivery as fully redundant and the transfer counts
    // break against the closed form.
    bsb::fuzz::FuzzCase c;
    c.variant = bsb::fuzz::Variant::BcastHier;
    c.nranks = 11;
    c.nbytes = 65536;
    c.root = 5;
    c.node_sizes = {4, 4, 3};
    const CaseResult res = bsb::verify::verify_case(
        c, VerifyOptions{}, bsb::fuzz::Sabotage::HierDoubleFanout);
    out << res.summary() << "\n";
    return res.ok ? 0 : 1;
  }
  if (kind == "redundant-rs") {
    // A blocked reduce_scatter that ships every finished chunk twice: the
    // values stay correct, but the reduce-flow pass must price the second
    // delivery as redundant and fail the zero-redundancy expectation.
    bsb::fuzz::FuzzCase c;
    c.variant = bsb::fuzz::Variant::ReduceScatterBlocks;
    c.nranks = 8;
    c.nbytes = 8192;
    c = bsb::fuzz::normalize_case(c);
    const CaseResult res = bsb::verify::verify_case(
        c, VerifyOptions{}, bsb::fuzz::Sabotage::ReduceScatterDoubleFinal);
    out << res.summary() << "\n";
    return res.ok ? 0 : 1;
  }
  Schedule sched;
  if (kind == "cycle") {
    sched = broken_cycle();
  } else if (kind == "race") {
    sched = broken_race();
  } else if (kind == "truncation") {
    sched = broken_truncation();
  } else {
    std::cerr << "unknown --demo-broken kind '" << kind << "'\n";
    return 2;
  }
  VerifyOptions opt;
  opt.check_dataflow = false;
  const CaseResult res = bsb::verify::verify_schedule(sched, 0, opt);
  out << res.summary() << "\n";
  return res.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Large-P sweeps allocate multi-GB schedule/match arrays per case. Keep
  // freed memory in the heap between cases instead of returning it to the
  // kernel: re-faulting those pages otherwise dominates the run time.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);
#endif
  SweepOptions opt;
  std::optional<std::string> json_path;
  std::optional<std::string> demo_broken;
  bool selftest = false;
  int single_ranks = 0;
  int single_root = 0;
  std::uint64_t single_bytes = 65536;
  std::uint64_t single_skew_seed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto num = [&] { return std::strtoull(val.c_str(), nullptr, 10); };
    if (key == "--help" || key == "-h") {
      usage(std::cout);
      return 0;
    } else if (key == "--pmax") {
      opt.pmax = static_cast<int>(num());
    } else if (key == "--plist") {
      for (const std::uint64_t p : parse_u64_list(val)) {
        opt.plist.push_back(static_cast<int>(p));
      }
    } else if (key == "--sizes") {
      opt.sizes = parse_u64_list(val);
    } else if (key == "--eager") {
      opt.eager_thresholds = parse_u64_list(val);
    } else if (key == "--variant") {
      const auto v = bsb::fuzz::variant_from_string(val);
      if (!v) {
        std::cerr << "unknown variant '" << val << "'\n";
        return 2;
      }
      opt.only = *v;
    } else if (key == "--all-roots-upto") {
      opt.all_roots_upto = static_cast<int>(num());
    } else if (key == "--no-closed-forms") {
      opt.closed_form_density = false;
    } else if (key == "--json") {
      json_path = val;
    } else if (key == "--verbose") {
      opt.verbose = true;
    } else if (key == "--selftest") {
      selftest = true;
    } else if (key == "--demo-broken") {
      demo_broken = val;
    } else if (key == "--ranks") {
      single_ranks = static_cast<int>(num());
    } else if (key == "--root") {
      single_root = static_cast<int>(num());
    } else if (key == "--bytes") {
      single_bytes = num();
    } else if (key == "--skew-seed") {
      single_skew_seed = num();
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  if (selftest) return run_selftest(std::cout);
  if (demo_broken) return run_demo_broken(*demo_broken, std::cout);

  if (single_ranks > 0) {
    if (!opt.only) {
      std::cerr << "--ranks needs --variant=NAME\n";
      return 2;
    }
    bsb::fuzz::FuzzCase c;
    c.variant = *opt.only;
    c.nranks = single_ranks;
    c.root = single_root;
    c.nbytes = single_bytes;
    c.segment_bytes = 4096;
    c.skew_seed = single_skew_seed;
    c = bsb::fuzz::normalize_case(c);
    VerifyOptions vopt;
    vopt.eager_thresholds = opt.eager_thresholds;
    const CaseResult res = bsb::verify::verify_case(c, vopt);
    std::cout << res.summary() << "\n";
    return res.ok ? 0 : 1;
  }

  const bsb::verify::SweepReport report = bsb::verify::run_sweep(opt, std::cout);
  if (json_path) bsb::verify::write_verify_json(*json_path, opt, report);
  std::cout << "verified " << report.cases << " configuration(s), "
            << report.proofs << " properties, " << report.schedules_ops
            << " schedule ops in " << report.elapsed_seconds << "s: "
            << (report.ok() ? "ALL PROVEN" : "FAILURES") << "\n";
  if (!report.closed_form_failures.empty()) {
    for (const std::string& f : report.closed_form_failures) {
      std::cout << "closed-form FAIL: " << f << "\n";
    }
  }
  return report.ok() ? 0 : 1;
}
