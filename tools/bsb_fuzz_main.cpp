// bsb-fuzz: differential fuzzing and fault-injection driver for every
// broadcast/allgather path in the repository.
//
//   bsb-fuzz --cases=5000 --time-budget=55        # bounded random sweep
//   bsb-fuzz --seed=7 --case=123                  # replay one generator draw
//   bsb-fuzz --variant=bcast-scatter-ring-tuned --ranks=10 --bytes=65536
//                                                 # replay an explicit config
//   bsb-fuzz --selftest                           # prove the detectors fire
//
// Exit status: 0 = clean (or self-test detected the sabotage), 1 = at
// least one discrepancy (reproducers printed), 2 = usage error.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "fuzz/harness.hpp"

namespace {

using bsb::fuzz::FuzzCase;
using bsb::fuzz::HarnessOptions;

struct CliArgs {
  HarnessOptions harness;
  std::optional<FuzzCase> explicit_case;
  bool selftest = false;
  bool list_only = false;
};

void usage(std::ostream& os) {
  os << "bsb-fuzz — differential fuzzing of all bcast/allgather paths\n\n"
        "Sweep mode:\n"
        "  --seed=N            master seed (default 1)\n"
        "  --cases=N           configurations to run (default 1000)\n"
        "  --case=K            replay exactly generator draw K (implies --cases=1)\n"
        "  --time-budget=S     stop after S wall seconds (default unbounded)\n"
        "  --min-ranks=N --max-ranks=N   process-count range (default 2..64)\n"
        "  --max-bytes=N       message-size cap (default 655360)\n"
        "  --watchdog=S        per-operation deadlock watchdog (default 20)\n"
        "  --max-failures=N    stop after N failures (default 1)\n"
        "  --no-faults         disable fault-injection sampling\n"
        "  --no-shrink         report failures without shrinking\n"
        "  --list              print sampled configs without running them\n"
        "  --verbose           print each case before running it\n"
        "  --selftest          corrupt RingPlan.step and verify detection\n\n"
        "Explicit replay (prints of shrunk reproducers use these; the shape\n"
        "is snapped to the variant's rules, --smp-cores defaults to 4):\n"
        "  --variant=NAME --ranks=N [--root=R] [--bytes=B] [--eager=E]\n"
        "  [--segment=S] [--smp-cores=C] [--smsg=B] [--mmsg=B] [--tuned=0|1]\n"
        "  [--op=sum|max] [--dtype=i32|f64] [--skew-seed=N] [--nodes=4,4,3]\n"
        "  [--fault-seed=N --delay-prob=P --max-delay-us=U --reorder-prob=P\n"
        "   --force-rndv-prob=P --force-eager-prob=P]\n";
}

std::optional<CliArgs> parse(int argc, char** argv) {
  CliArgs a;
  FuzzCase ec;  // populated when --variant appears
  bool have_variant = false;
  bool cases_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto num = [&] { return std::strtoull(val.c_str(), nullptr, 10); };
    const auto dnum = [&] { return std::strtod(val.c_str(), nullptr); };
    if (key == "--help" || key == "-h") {
      usage(std::cout);
      std::exit(0);
    } else if (key == "--seed") {
      a.harness.seed = num();
    } else if (key == "--cases") {
      a.harness.cases = num();
      cases_given = true;
    } else if (key == "--case") {
      a.harness.first_case = num();
      if (!cases_given) a.harness.cases = 1;
    } else if (key == "--time-budget") {
      a.harness.time_budget_seconds = dnum();
    } else if (key == "--min-ranks") {
      a.harness.gen.min_ranks = static_cast<int>(num());
    } else if (key == "--max-ranks") {
      a.harness.gen.max_ranks = static_cast<int>(num());
    } else if (key == "--max-bytes") {
      a.harness.gen.max_bytes = num();
    } else if (key == "--watchdog") {
      a.harness.gen.watchdog_seconds = dnum();
    } else if (key == "--max-failures") {
      a.harness.max_failures = num();
    } else if (key == "--no-faults") {
      a.harness.gen.faults = false;
    } else if (key == "--no-shrink") {
      a.harness.shrink = false;
    } else if (key == "--list") {
      a.list_only = true;
    } else if (key == "--verbose") {
      a.harness.verbose = true;
    } else if (key == "--selftest") {
      a.selftest = true;
    } else if (key == "--variant") {
      const auto v = bsb::fuzz::variant_from_string(val);
      if (!v) {
        std::cerr << "unknown variant '" << val << "'\n";
        return std::nullopt;
      }
      ec.variant = *v;
      have_variant = true;
    } else if (key == "--ranks") {
      ec.nranks = static_cast<int>(num());
    } else if (key == "--root") {
      ec.root = static_cast<int>(num());
    } else if (key == "--bytes") {
      ec.nbytes = num();
    } else if (key == "--eager") {
      ec.eager_threshold = static_cast<std::size_t>(num());
    } else if (key == "--segment") {
      ec.segment_bytes = num();
    } else if (key == "--smp-cores") {
      ec.smp_cores_per_node = static_cast<int>(num());
    } else if (key == "--smsg") {
      ec.smsg_limit = num();
    } else if (key == "--mmsg") {
      ec.mmsg_limit = num();
    } else if (key == "--tuned") {
      ec.use_tuned_ring = num() != 0;
    } else if (key == "--op") {
      const auto op = bsb::coll::red_op_from_string(val);
      if (!op) {
        std::cerr << "unknown reduction op '" << val << "'\n";
        return std::nullopt;
      }
      ec.red_op = *op;
    } else if (key == "--dtype") {
      const auto dt = bsb::coll::red_dtype_from_string(val);
      if (!dt) {
        std::cerr << "unknown reduction dtype '" << val << "'\n";
        return std::nullopt;
      }
      ec.red_dtype = *dt;
    } else if (key == "--skew-seed") {
      ec.skew_seed = num();
    } else if (key == "--nodes") {
      ec.node_sizes.clear();
      std::size_t pos = 0;
      while (pos <= val.size()) {
        const std::size_t comma = std::min(val.find(',', pos), val.size());
        const std::string tok = val.substr(pos, comma - pos);
        char* end = nullptr;
        const long size = std::strtol(tok.c_str(), &end, 10);
        if (tok.empty() || *end != '\0' || size < 1) {
          std::cerr << "--nodes wants a comma-separated size list, got '"
                    << val << "'\n";
          return std::nullopt;
        }
        ec.node_sizes.push_back(static_cast<int>(size));
        pos = comma + 1;
      }
    } else if (key == "--fault-seed") {
      ec.faults.enabled = true;
      ec.faults.seed = num();
    } else if (key == "--delay-prob") {
      ec.faults.enabled = true;
      ec.faults.delay_prob = dnum();
    } else if (key == "--max-delay-us") {
      ec.faults.enabled = true;
      ec.faults.max_delay_us = static_cast<std::uint32_t>(num());
    } else if (key == "--reorder-prob") {
      ec.faults.enabled = true;
      ec.faults.reorder_prob = dnum();
    } else if (key == "--force-rndv-prob") {
      ec.faults.enabled = true;
      ec.faults.force_rendezvous_prob = dnum();
    } else if (key == "--force-eager-prob") {
      ec.faults.enabled = true;
      ec.faults.force_eager_prob = dnum();
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return std::nullopt;
    }
  }
  if (have_variant) {
    if (ec.nranks < 2) {
      std::cerr << "--variant replay needs --ranks=N (>= 2)\n";
      return std::nullopt;
    }
    ec.watchdog_seconds = a.harness.gen.watchdog_seconds;
    // Snap the shape to the variant's rules (rank count, root, byte grain,
    // node shape derived from --smp-cores when --nodes is omitted), as
    // bsb-verify's single-case mode does.
    a.explicit_case = bsb::fuzz::normalize_case(std::move(ec));
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) {
    usage(std::cerr);
    return 2;
  }
  const CliArgs& a = *parsed;

  if (a.selftest) {
    return bsb::fuzz::run_selftest(a.harness, std::cout) ? 0 : 1;
  }

  if (a.explicit_case) {
    const FuzzCase& c = *a.explicit_case;
    std::cout << "replay: " << bsb::fuzz::describe(c) << "\n";
    const bsb::fuzz::RunOutcome o = bsb::fuzz::run_case(c);
    if (o.ok) {
      std::cout << "OK (" << o.messages << " messages)\n";
      return 0;
    }
    std::cout << "FAIL: " << o.detail << "\n";
    if (a.harness.shrink) {
      const bsb::fuzz::ShrinkResult s =
          bsb::fuzz::shrink_case(c, bsb::fuzz::Sabotage::None);
      std::cout << "shrunk (" << s.reruns
                << " reruns): " << bsb::fuzz::describe(s.minimal)
                << "\nshrunk reproduce: "
                << bsb::fuzz::explicit_reproducer(s.minimal) << "\n";
    }
    return 1;
  }

  if (a.list_only) {
    for (std::uint64_t i = 0; i < a.harness.cases; ++i) {
      const FuzzCase c = bsb::fuzz::sample_case(
          a.harness.seed, a.harness.first_case + i, a.harness.gen);
      std::cout << "case " << c.index << ": " << bsb::fuzz::describe(c) << "\n";
    }
    return 0;
  }

  const bsb::fuzz::HarnessReport rep = bsb::fuzz::run_fuzz(a.harness, std::cout);
  return rep.failures == 0 ? 0 : 1;
}
